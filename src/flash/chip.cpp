#include "flash/chip.hpp"

#include "common/logging.hpp"
#include "flash/latch_array.hpp"
#include "obs/profiler.hpp"

namespace parabit::flash {

Chip::Chip(const FlashGeometry &geom, bool store_data,
           const ErrorModelConfig &error_cfg, std::uint64_t seed)
    : geom_(geom), errorModel_(error_cfg), rng_(seed)
{
    const std::size_t n =
        static_cast<std::size_t>(geom_.diesPerChip) * geom_.planesPerDie;
    planes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        planes_.emplace_back(geom_, store_data);
}

Block &
Chip::blockAt(const PhysPageAddr &a)
{
    return plane(a.die, a.plane).block(a.block);
}

bool
Chip::programPage(const PhysPageAddr &a, const Payload &data,
                  const PageOob *oob)
{
    PROFILE_SCOPE(obs::Subsystem::kFlashArray);
    if (plane(a.die, a.plane).dead())
        return false;
    if (faults_.programFails && faults_.programFails(a))
        return false;
    Block &blk = blockAt(a);
    blk.program(a.wordline, a.msb, data, oob);
    blk.setProgramTick(a.wordline, now_);
    return true;
}

Payload
Chip::readPage(const PhysPageAddr &a)
{
    PROFILE_SCOPE(obs::Subsystem::kFlashArray);
    Block &blk = blockAt(a);
    if (blk.pageState(a.wordline, a.msb) != PageState::kValid)
        logWarn("Chip::readPage: reading a non-valid page");
    // A normal page read senses the wordline once (LSB) or twice (MSB),
    // stressing the block neighbors like any other sensing.  The read
    // itself stays ECC-clean (paper Section 5.8).
    chargeNeighborDisturb(blk, a, a.msb ? 2 : 1);
    if (const Payload &d = blk.pageData(a.wordline, a.msb))
        return d;
    // A timing-only array carries no payload at all; in a functional one
    // a page without bits (torn, or programmed without) reads as
    // all-ones.
    if (!blk.storesData())
        return nullptr;
    if (!erasedPage_)
        erasedPage_ = makePayload(BitVector(geom_.pageBits(), true));
    return erasedPage_;
}

bool
Chip::eraseBlock(const PhysPageAddr &a)
{
    PROFILE_SCOPE(obs::Subsystem::kFlashArray);
    if (plane(a.die, a.plane).dead())
        return false;
    if (faults_.eraseFails && faults_.eraseFails(a))
        return false;
    blockAt(a).erase();
    return true;
}

void
Chip::chargeNeighborDisturb(Block &blk, const PhysPageAddr &a, int senses)
{
    if (senses <= 0)
        return;
    double units = static_cast<double>(senses);
    if (faults_.disturbMultiplier)
        units *= faults_.disturbMultiplier(a);
    const auto charge = static_cast<std::uint64_t>(units);
    if (charge == 0)
        return;
    if (a.wordline > 0)
        blk.chargeDisturb(a.wordline - 1, charge);
    if (a.wordline + 1 < blk.wordlines())
        blk.chargeDisturb(a.wordline + 1, charge);
}

double
Chip::wearMultiplierAt(const Block &blk, const PhysPageAddr &a) const
{
    if (!errorModel_.wearTrackingEnabled())
        return 1.0;
    return errorModel_.wearMultiplier(blk.disturbCount(a.wordline),
                                      ageHours(blk, a));
}

std::uint64_t
Chip::wordlineDisturb(const PhysPageAddr &a)
{
    return blockAt(a).disturbCount(a.wordline);
}

double
Chip::wordlineAgeHours(const PhysPageAddr &a)
{
    return ageHours(blockAt(a), a);
}

double
Chip::ageHours(const Block &blk, const PhysPageAddr &a) const
{
    const Tick pt = blk.programTick(a.wordline);
    const Tick age = now_ > pt ? now_ - pt : 0;
    double hours = ticks::toSec(age) / 3600.0;
    if (faults_.retentionMultiplier)
        hours *= faults_.retentionMultiplier(a);
    return hours;
}

double
Chip::predictedRber(const PhysPageAddr &a)
{
    const Block &blk = blockAt(a);
    const double base = errorModel_.rberPerSense(blk.eraseCount());
    const double fault =
        faults_.rberMultiplier ? faults_.rberMultiplier(a) : 1.0;
    return base * wearMultiplierAt(blk, a) * fault;
}

BitVector
Chip::runOp(const MicroProgram &prog, const PhysPageAddr &sense_addr,
            const WordlineData &self, const WordlineData &wl_m,
            const WordlineData &wl_n, std::uint32_t pe_cycles,
            int *bit_errors, double wear_mult)
{
    PROFILE_SCOPE(obs::Subsystem::kFlashArray);
    const Plane &pl = plane(sense_addr.die, sense_addr.plane);
    if (pl.dead())
        panic("Chip::runOp: operation issued to a dead plane "
              "(callers must check planeOperational() first)");

    const double mult =
        (faults_.rberMultiplier ? faults_.rberMultiplier(sense_addr) : 1.0) *
        wear_mult;
    const std::size_t width = geom_.pageBits();

    // Draw every sensing's flips up front, in program order, so the RNG
    // stream is the one the sensings consume one after another.  Every
    // sensing of the op draws from one distribution.
    noise_.flips.clear();
    noise_.flipsEnd.clear();
    noise_.stuck = pl.stuckBitlines();
    if (errorModel_.enabled() && mult > 0.0) {
        const ErrorModel::FlipDraw draw =
            errorModel_.flipDraw(width, pe_cycles, mult);
        for (const MicroStep &st : prog.steps) {
            if (st.kind != MicroStep::Kind::kSense)
                continue;
            ErrorModel::drawFlips(draw, rng_, noise_.flips);
            noise_.flipsEnd.push_back(
                static_cast<std::uint32_t>(noise_.flips.size()));
        }
    }

    BitVector out = BitVector::forOverwrite(width);
    const std::size_t changed =
        executeProgram(prog, self, wl_m, wl_n, out, noise_);
    noise_.stuck = {}; // the plane's list may change before the next op
    if (bit_errors)
        *bit_errors = static_cast<int>(changed);
    return out;
}

BitVector
Chip::opCoLocated(BitwiseOp op, const PhysPageAddr &a, int *bit_errors)
{
    Block &blk = blockAt(a);
    const WordlineData wl = blk.wordlineData(a.wordline);
    const MicroProgram &prog = coLocatedProgram(op);
    // A multi-sensing chain stresses the operand wordline's neighbors
    // once per SRO — the per-sense charging of the disturb model.
    chargeNeighborDisturb(blk, a, coLocatedSenseCount(op));
    return runOp(prog, a, wl, {}, {}, blk.eraseCount(), bit_errors,
                 wearMultiplierAt(blk, a));
}

BitVector
Chip::opLocationFree(BitwiseOp op, const PhysPageAddr &m,
                     const PhysPageAddr &n, int *bit_errors,
                     LocFreeVariant variant)
{
    if (!m.sameBitlines(n))
        panic("Chip::opLocationFree: operands must share a plane (bitlines)");
    Block &bm = blockAt(m);
    Block &bn = blockAt(n);
    const WordlineData wm = bm.wordlineData(m.wordline);
    const WordlineData wn = bn.wordlineData(n.wordline);
    const std::uint32_t pe = std::max(bm.eraseCount(), bn.eraseCount());
    const MicroProgram &prog = locationFreeProgram(op, variant);
    // Both operand wordlines are selected across the chain; charging the
    // full SRO count to each is the conservative split-free bound.
    const int senses = locationFreeSenseCount(op, variant);
    chargeNeighborDisturb(bm, m, senses);
    chargeNeighborDisturb(bn, n, senses);
    const double wear =
        std::max(wearMultiplierAt(bm, m), wearMultiplierAt(bn, n));
    return runOp(prog, n, {}, wm, wn, pe, bit_errors, wear);
}

BitVector
Chip::opBufferedOperand(BitwiseOp op, const BitVector &m_buffer,
                        const PhysPageAddr &n, int *bit_errors)
{
    Block &bn = blockAt(n);
    const WordlineData wn = bn.wordlineData(n.wordline);
    // The buffer plays the LSB page of a virtual wordline; only N's
    // sensings can err, but drawing noise for every sensing is close
    // enough at the rates involved (the buffer path has no sense
    // amplifier).
    const WordlineData wm{&m_buffer, nullptr};
    const MicroProgram &prog =
        locationFreeProgram(op, LocFreeVariant::kLsbLsb);
    chargeNeighborDisturb(bn, n,
                          locationFreeSenseCount(op, LocFreeVariant::kLsbLsb));
    return runOp(prog, n, {}, wm, wn, bn.eraseCount(), bit_errors,
                 wearMultiplierAt(bn, n));
}

PageState
Chip::pageState(const PhysPageAddr &a)
{
    return blockAt(a).pageState(a.wordline, a.msb);
}

std::optional<PageOob>
Chip::pageOob(const PhysPageAddr &a)
{
    return blockAt(a).pageOob(a.wordline, a.msb);
}

void
Chip::markTornWordline(const PhysPageAddr &a)
{
    blockAt(a).markTorn(a.wordline);
}

bool
Chip::wordlineTorn(const PhysPageAddr &a)
{
    return blockAt(a).torn(a.wordline);
}

std::uint32_t
Chip::blockEraseCount(const PhysPageAddr &a)
{
    return blockAt(a).eraseCount();
}

} // namespace parabit::flash
