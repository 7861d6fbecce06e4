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

Plane &
Chip::plane(std::uint32_t die, std::uint32_t plane_idx)
{
    if (die >= geom_.diesPerChip || plane_idx >= geom_.planesPerDie)
        panic("Chip::plane: address out of range");
    return planes_[static_cast<std::size_t>(die) * geom_.planesPerDie +
                   plane_idx];
}

const Plane &
Chip::plane(std::uint32_t die, std::uint32_t plane_idx) const
{
    return const_cast<Chip *>(this)->plane(die, plane_idx);
}

Block &
Chip::blockAt(const ChipPageAddr &a)
{
    return plane(a.die, a.plane).block(a.block);
}

bool
Chip::programPage(const ChipPageAddr &a, const Payload &data,
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
Chip::readPage(const ChipPageAddr &a)
{
    PROFILE_SCOPE(obs::Subsystem::kFlashArray);
    Block &blk = blockAt(a);
    if (blk.pageState(a.wordline, a.msb) != PageState::kValid)
        logWarn("Chip::readPage: reading a non-valid page");
    // A normal page read senses the wordline once (LSB) or twice (MSB),
    // stressing the block neighbors like any other sensing.  The read
    // itself stays ECC-clean (paper Section 5.8).
    chargeNeighborDisturb(a, a.msb ? 2 : 1);
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
Chip::eraseBlock(std::uint32_t die, std::uint32_t plane_idx,
                 std::uint32_t block)
{
    PROFILE_SCOPE(obs::Subsystem::kFlashArray);
    if (plane(die, plane_idx).dead())
        return false;
    if (faults_.eraseFails &&
        faults_.eraseFails(ChipPageAddr{die, plane_idx, block, 0, false}))
        return false;
    plane(die, plane_idx).block(block).erase();
    return true;
}

void
Chip::chargeNeighborDisturb(const ChipPageAddr &a, int senses)
{
    if (senses <= 0)
        return;
    double units = static_cast<double>(senses);
    if (faults_.disturbMultiplier)
        units *= faults_.disturbMultiplier(a);
    const auto charge = static_cast<std::uint64_t>(units);
    if (charge == 0)
        return;
    Block &blk = blockAt(a);
    if (a.wordline > 0)
        blk.chargeDisturb(a.wordline - 1, charge);
    if (a.wordline + 1 < blk.wordlines())
        blk.chargeDisturb(a.wordline + 1, charge);
}

double
Chip::wearMultiplierAt(const ChipPageAddr &a)
{
    if (!errorModel_.wearTrackingEnabled())
        return 1.0;
    Block &blk = blockAt(a);
    return errorModel_.wearMultiplier(blk.disturbCount(a.wordline),
                                      wordlineAgeHours(a));
}

std::uint64_t
Chip::wordlineDisturb(const ChipPageAddr &a)
{
    return blockAt(a).disturbCount(a.wordline);
}

double
Chip::wordlineAgeHours(const ChipPageAddr &a)
{
    const Tick pt = blockAt(a).programTick(a.wordline);
    const Tick age = now_ > pt ? now_ - pt : 0;
    double hours = ticks::toSec(age) / 3600.0;
    if (faults_.retentionMultiplier)
        hours *= faults_.retentionMultiplier(a);
    return hours;
}

double
Chip::predictedRber(const ChipPageAddr &a)
{
    const double base = errorModel_.rberPerSense(blockAt(a).eraseCount());
    const double fault =
        faults_.rberMultiplier ? faults_.rberMultiplier(a) : 1.0;
    return base * wearMultiplierAt(a) * fault;
}

BitVector
Chip::runOp(const MicroProgram &prog, const ChipPageAddr &sense_addr,
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
    // stream is the one the sensings consume one after another.
    SenseNoise noise;
    noise.stuck = pl.stuckBitlines();
    if (errorModel_.enabled() && mult > 0.0) {
        for (const MicroStep &st : prog.steps) {
            if (st.kind != MicroStep::Kind::kSense)
                continue;
            errorModel_.drawFlips(width, pe_cycles, rng_, mult, noise.flips);
            noise.flipsEnd.push_back(
                static_cast<std::uint32_t>(noise.flips.size()));
        }
    }

    BitVector out(width);
    executeProgram(prog, self, wl_m, wl_n, out, noise);
    if (bit_errors) {
        *bit_errors = 0;
        if (!noise.empty()) {
            BitVector clean(width);
            executeProgram(prog, self, wl_m, wl_n, clean);
            *bit_errors = static_cast<int>((clean ^= out).popcount());
        }
    }
    return out;
}

BitVector
Chip::opCoLocated(BitwiseOp op, const ChipPageAddr &a, int *bit_errors)
{
    Block &blk = blockAt(a);
    const WordlineData wl = blk.wordlineData(a.wordline);
    const MicroProgram &prog = coLocatedProgram(op);
    // A multi-sensing chain stresses the operand wordline's neighbors
    // once per SRO — the per-sense charging of the disturb model.
    chargeNeighborDisturb(a, prog.senseCount());
    return runOp(prog, a, wl, {}, {}, blk.eraseCount(), bit_errors,
                 wearMultiplierAt(a));
}

BitVector
Chip::opLocationFree(BitwiseOp op, const ChipPageAddr &m,
                     const ChipPageAddr &n, int *bit_errors,
                     LocFreeVariant variant)
{
    if (m.die != n.die || m.plane != n.plane)
        panic("Chip::opLocationFree: operands must share a plane (bitlines)");
    Block &bm = blockAt(m);
    Block &bn = blockAt(n);
    const WordlineData wm = bm.wordlineData(m.wordline);
    const WordlineData wn = bn.wordlineData(n.wordline);
    const std::uint32_t pe = std::max(bm.eraseCount(), bn.eraseCount());
    const MicroProgram &prog = locationFreeProgram(op, variant);
    // Both operand wordlines are selected across the chain; charging the
    // full SRO count to each is the conservative split-free bound.
    chargeNeighborDisturb(m, prog.senseCount());
    chargeNeighborDisturb(n, prog.senseCount());
    const double wear =
        std::max(wearMultiplierAt(m), wearMultiplierAt(n));
    return runOp(prog, n, {}, wm, wn, pe, bit_errors, wear);
}

BitVector
Chip::opBufferedOperand(BitwiseOp op, const BitVector &m_buffer,
                        const ChipPageAddr &n, int *bit_errors)
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
    chargeNeighborDisturb(n, prog.senseCount());
    return runOp(prog, n, {}, wm, wn, bn.eraseCount(), bit_errors,
                 wearMultiplierAt(n));
}

PageState
Chip::pageState(const ChipPageAddr &a)
{
    return blockAt(a).pageState(a.wordline, a.msb);
}

const PageOob *
Chip::pageOob(const ChipPageAddr &a)
{
    return blockAt(a).pageOob(a.wordline, a.msb);
}

void
Chip::markTornWordline(const ChipPageAddr &a)
{
    blockAt(a).markTorn(a.wordline);
}

bool
Chip::wordlineTorn(const ChipPageAddr &a)
{
    return blockAt(a).torn(a.wordline);
}

std::uint32_t
Chip::blockEraseCount(std::uint32_t die, std::uint32_t plane_idx,
                      std::uint32_t block)
{
    return plane(die, plane_idx).block(block).eraseCount();
}

} // namespace parabit::flash
