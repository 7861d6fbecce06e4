#include "ssd/rain.hpp"

#include "ssd/health.hpp"

namespace parabit::ssd {

RainController::RainController(const SsdConfig &cfg,
                               std::vector<flash::Chip> &chips)
    : geom_(cfg.geometry), storeData_(cfg.storeData),
      chargeParity_(cfg.rain.chargeParityPrograms), chips_(&chips)
{
}

std::uint64_t
RainController::stripeKey(const flash::PhysPageAddr &a) const
{
    // Everything but (chip, die): the stripe spans the dies of the
    // channel at one (plane, block, wordline, page-kind) position.
    std::uint64_t k = a.channel;
    k = k * geom_.planesPerDie + a.plane;
    k = k * geom_.blocksPerPlane + a.block;
    k = k * geom_.wordlinesPerBlock + a.wordline;
    return k * 2 + (a.msb ? 1 : 0);
}

flash::PhysPageAddr
RainController::parityAddr(const flash::PhysPageAddr &a) const
{
    const std::uint32_t dies_per_channel =
        geom_.chipsPerChannel * geom_.diesPerChip;
    const std::uint32_t d = (a.block + a.wordline) % dies_per_channel;
    flash::PhysPageAddr p = a;
    p.chip = d / geom_.diesPerChip;
    p.die = d % geom_.diesPerChip;
    return p;
}

const BitVector *
RainController::payloadAt(const flash::PhysPageAddr &a) const
{
    const std::size_t idx =
        static_cast<std::size_t>(a.channel) * geom_.chipsPerChannel + a.chip;
    const flash::Plane &pl = (*chips_)[idx].plane(a.die, a.plane);
    const flash::Block *blk = pl.blockIfExists(a.block);
    return blk ? blk->pageData(a.wordline, a.msb).get() : nullptr;
}

bool
RainController::planeAlive(const flash::PhysPageAddr &a) const
{
    const std::size_t idx =
        static_cast<std::size_t>(a.channel) * geom_.chipsPerChannel + a.chip;
    return (*chips_)[idx].planeOperational(a.die, a.plane);
}

void
RainController::xorInto(std::uint64_t key, const BitVector &v)
{
    auto it = parity_.find(key);
    if (it == parity_.end())
        it = parity_.emplace(key, BitVector(geom_.pageBits(), false)).first;
    it->second ^= v;
}

void
RainController::onProgram(const flash::PhysPageAddr &a,
                          std::vector<PhysOp> &ops)
{
    if (storeData_) {
        if (const BitVector *d = payloadAt(a))
            xorInto(stripeKey(a), *d);
    }
    ++updates_;
    if (chargeParity_ && !(health_ && health_->backgroundThrottled())) {
        // One stripe-buffer destage program rides along with the data
        // program; it is booked as background traffic on the rotating
        // parity die and has no functional side effect.  A degraded
        // device defers destage (the buffer is battery-backed) to keep
        // the channels free for foreground I/O.
        ops.push_back(PhysOp{PhysOp::Kind::kPageProgram, parityAddr(a),
                             true});
        ++destages_;
    }
}

void
RainController::willInvalidate(const flash::PhysPageAddr &a)
{
    if (!storeData_)
        return;
    if (const BitVector *d = payloadAt(a)) {
        xorInto(stripeKey(a), *d);
        ++updates_;
    }
}

std::optional<BitVector>
RainController::rebuildPage(const flash::PhysPageAddr &a)
{
    auto it = parity_.find(stripeKey(a));
    if (it == parity_.end()) {
        ++rebuildFails_;
        return std::nullopt;
    }
    BitVector acc = it->second;
    for (std::uint32_t chip = 0; chip < geom_.chipsPerChannel; ++chip) {
        for (std::uint32_t die = 0; die < geom_.diesPerChip; ++die) {
            flash::PhysPageAddr m = a;
            m.chip = chip;
            m.die = die;
            if (m == a)
                continue;
            const BitVector *d = payloadAt(m);
            if (!d)
                continue;
            if (!planeAlive(m)) {
                // Two unreadable members in one stripe: single-parity
                // RAIN cannot separate their contributions.
                ++rebuildFails_;
                return std::nullopt;
            }
            acc ^= *d;
        }
    }
    ++rebuilds_;
    return acc;
}

void
RainController::recomputeAll()
{
    ++recomputes_;
    parity_.clear();
    if (!storeData_)
        return;
    computeParityFromFlash(parity_);
}

void
RainController::computeParityFromFlash(
    std::unordered_map<std::uint64_t, BitVector> &out) const
{
    auto xor_into = [&](std::uint64_t key, const BitVector &v) {
        auto it = out.find(key);
        if (it == out.end())
            it = out.emplace(key, BitVector(geom_.pageBits(), false)).first;
        it->second ^= v;
    };
    for (std::size_t i = 0; i < chips_->size(); ++i) {
        flash::PhysPageAddr a;
        a.channel = static_cast<std::uint32_t>(i / geom_.chipsPerChannel);
        a.chip = static_cast<std::uint32_t>(i % geom_.chipsPerChannel);
        for (a.die = 0; a.die < geom_.diesPerChip; ++a.die) {
            for (a.plane = 0; a.plane < geom_.planesPerDie; ++a.plane) {
                const flash::Plane &pl =
                    (*chips_)[i].plane(a.die, a.plane);
                for (a.block = 0; a.block < geom_.blocksPerPlane;
                     ++a.block) {
                    const flash::Block *blk = pl.blockIfExists(a.block);
                    if (!blk)
                        continue;
                    for (a.wordline = 0;
                         a.wordline < geom_.wordlinesPerBlock;
                         ++a.wordline) {
                        if (const flash::Payload &lsb =
                                blk->pageData(a.wordline, false)) {
                            a.msb = false;
                            xor_into(stripeKey(a), *lsb);
                        }
                        if (const flash::Payload &msb =
                                blk->pageData(a.wordline, true)) {
                            a.msb = true;
                            xor_into(stripeKey(a), *msb);
                        }
                    }
                }
            }
        }
    }
}

void
RainController::auditParity(InvariantReport &r) const
{
    if (!storeData_)
        return; // no payloads, no functional parity to audit
    std::unordered_map<std::uint64_t, BitVector> truth;
    computeParityFromFlash(truth);

    // A stripe with a member on a dead plane legitimately diverges from
    // the surviving members' XOR: the buffer still remembers the lost
    // payloads — exactly what rebuildPage() consumes to restore them.
    // Audit only stripes whose members are all alive.  The stripe key's
    // top component is (channel * planesPerDie + plane), so one flag per
    // channel-plane position covers every member die.
    std::vector<bool> degraded(
        static_cast<std::size_t>(geom_.channels) * geom_.planesPerDie,
        false);
    for (std::uint32_t ch = 0; ch < geom_.channels; ++ch)
        for (std::uint32_t chip = 0; chip < geom_.chipsPerChannel; ++chip)
            for (std::uint32_t die = 0; die < geom_.diesPerChip; ++die)
                for (std::uint32_t pl = 0; pl < geom_.planesPerDie; ++pl)
                    if (!(*chips_)[static_cast<std::size_t>(ch) *
                                       geom_.chipsPerChannel +
                                   chip]
                             .planeOperational(die, pl))
                        degraded[static_cast<std::size_t>(ch) *
                                     geom_.planesPerDie +
                                 pl] = true;
    const std::uint64_t stripesPerPlane =
        2ull * geom_.blocksPerPlane * geom_.wordlinesPerBlock;
    auto stripeDegraded = [&](std::uint64_t key) {
        return degraded[static_cast<std::size_t>(key / stripesPerPlane)];
    };

    const BitVector zero(geom_.pageBits(), false);
    for (const auto &[key, page] : parity_) {
        if (stripeDegraded(key))
            continue;
        const auto it = truth.find(key);
        // A stripe whose members all dropped their payloads folds back
        // to all-zero parity but keeps its buffer entry.
        const BitVector &expect = it == truth.end() ? zero : it->second;
        if (!r.check(page == expect))
            r.fail("rain.parity.stripe_xor",
                   "stripe " + std::to_string(key),
                   "stripe-buffer parity diverges from the XOR of the "
                   "members' stored payloads");
    }
    for (const auto &[key, page] : truth) {
        if (stripeDegraded(key))
            continue;
        if (!r.check(parity_.count(key) > 0 || page == zero))
            r.fail("rain.parity.stripe_xor",
                   "stripe " + std::to_string(key),
                   "members hold payload but the stripe buffer tracks "
                   "no parity page");
    }
}

bool
RainController::debugCorruptParity()
{
    if (parity_.empty())
        return false;
    BitVector &page = parity_.begin()->second;
    page.set(0, !page.get(0));
    return true;
}

} // namespace parabit::ssd
