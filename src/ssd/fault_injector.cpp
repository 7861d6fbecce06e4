#include "ssd/fault_injector.hpp"

namespace parabit::ssd {

const char *
faultClassName(FaultClass c)
{
    switch (c) {
      case FaultClass::kElevatedRber: return "elevated-rber";
      case FaultClass::kStuckBitline: return "stuck-bitline";
      case FaultClass::kProgramFailure: return "program-failure";
      case FaultClass::kEraseFailure: return "erase-failure";
      case FaultClass::kDeadPlane: return "dead-plane";
      case FaultClass::kDeadChip: return "dead-chip";
      case FaultClass::kPowerLoss: return "power-loss";
      case FaultClass::kReadDisturbHot: return "read-disturb-hot";
      case FaultClass::kRetentionLoss: return "retention-loss";
      case FaultClass::kDieFail: return "die-fail";
    }
    return "?";
}

bool
faultClassTransient(FaultClass c)
{
    switch (c) {
      case FaultClass::kElevatedRber:
      case FaultClass::kStuckBitline:
      case FaultClass::kProgramFailure:
      case FaultClass::kEraseFailure:
      case FaultClass::kReadDisturbHot:
      case FaultClass::kRetentionLoss:
          return true;
      case FaultClass::kDeadPlane:
      case FaultClass::kDeadChip:
      case FaultClass::kDieFail:
      case FaultClass::kPowerLoss:
          return false;
    }
    return false;
}

FaultInjector::FaultInjector(const flash::FlashGeometry &geom,
                             std::uint64_t seed)
    : geom_(geom), seed_(seed), rng_(seed)
{
}

void
FaultInjector::addFault(const FaultSpec &spec)
{
    Active f;
    f.spec = spec;
    if (spec.cls == FaultClass::kPowerLoss)
        f.cutMid = spec.cutMidProgram ? *spec.cutMidProgram
                                      : rng_.chance(0.5);
    if (spec.cls == FaultClass::kStuckBitline) {
        const std::size_t bits = geom_.pageBits();
        for (std::uint32_t i = 0; i < spec.stuckCount; ++i)
            f.stuck.push_back(flash::StuckBitline{
                static_cast<std::size_t>(rng_.below(bits)),
                spec.stuckValue});
    }
    active_.push_back(std::move(f));
    specs_.push_back(spec);
}

std::vector<FaultSpec>
FaultInjector::randomSchedule(const flash::FlashGeometry &geom,
                              std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<FaultSpec> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        FaultSpec s;
        // kPowerLoss is excluded from random media-fault schedules: a
        // power cut ends the run, so SPOR harnesses arm it explicitly.
        s.cls = static_cast<FaultClass>(rng.below(6));
        s.plane = static_cast<flash::PlaneIndex>(rng.below(geom.planesTotal()));
        if (rng.chance(0.5))
            s.block = static_cast<std::uint32_t>(
                rng.below(geom.blocksPerPlane));
        s.rberMultiplier = 10.0 * static_cast<double>(1 + rng.below(100));
        s.stuckCount = static_cast<std::uint32_t>(1 + rng.below(8));
        s.stuckValue = rng.chance(0.5);
        s.failPeriod = static_cast<std::uint32_t>(1 + rng.below(8));
        s.onset = static_cast<std::uint32_t>(rng.below(16));
        out.push_back(s);
    }
    return out;
}

std::vector<FaultSpec>
FaultInjector::stormSchedule(const flash::FlashGeometry &geom,
                             std::uint64_t seed, const StormConfig &cfg)
{
    // The transient classes a storm may draw (see faultClassTransient);
    // permanent damage never comes from a storm, so lifting it with
    // clearTransient() restores the device's full capability.
    static constexpr FaultClass kStormClasses[] = {
        FaultClass::kElevatedRber,   FaultClass::kStuckBitline,
        FaultClass::kProgramFailure, FaultClass::kEraseFailure,
        FaultClass::kReadDisturbHot, FaultClass::kRetentionLoss,
    };
    constexpr std::size_t kStormClassCount =
        sizeof(kStormClasses) / sizeof(kStormClasses[0]);

    Rng rng(seed);
    const std::uint32_t planes_per_chip =
        geom.diesPerChip * geom.planesPerDie;
    std::vector<FaultSpec> out;
    out.reserve(static_cast<std::size_t>(cfg.bursts) * cfg.faultsPerBurst);
    for (std::uint32_t b = 0; b < cfg.bursts; ++b) {
        // Each burst concentrates on one focus chip — correlated damage.
        const auto focus = static_cast<std::uint32_t>(rng.below(geom.chips()));
        for (std::uint32_t i = 0; i < cfg.faultsPerBurst; ++i) {
            FaultSpec s;
            s.cls = kStormClasses[rng.below(kStormClassCount)];
            if (rng.chance(cfg.localityBias)) {
                const auto on_chip =
                    static_cast<std::uint32_t>(rng.below(planes_per_chip));
                s.plane = planeIndex(
                    geom, flash::PlaneCoord{focus / geom.chipsPerChannel,
                                            focus % geom.chipsPerChannel,
                                            on_chip / geom.planesPerDie,
                                            on_chip % geom.planesPerDie});
            } else {
                s.plane = static_cast<flash::PlaneIndex>(
                    rng.below(geom.planesTotal()));
            }
            if (rng.chance(0.5))
                s.block = static_cast<std::uint32_t>(
                    rng.below(geom.blocksPerPlane));
            s.rberMultiplier = 10.0 * static_cast<double>(1 + rng.below(100));
            s.stuckCount = static_cast<std::uint32_t>(1 + rng.below(8));
            s.stuckValue = rng.chance(0.5);
            s.failPeriod = static_cast<std::uint32_t>(1 + rng.below(4));
            s.onset = static_cast<std::uint32_t>(rng.below(8));
            out.push_back(s);
        }
    }
    return out;
}

std::size_t
FaultInjector::clearTransient()
{
    // active_ and specs_ are parallel (pushed together in addFault);
    // erase in lockstep so the pairing survives.
    std::size_t removed = 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < active_.size(); ++r) {
        if (faultClassTransient(active_[r].spec.cls)) {
            ++removed;
            continue;
        }
        if (w != r) {
            active_[w] = std::move(active_[r]);
            specs_[w] = specs_[r];
        }
        ++w;
    }
    active_.resize(w);
    specs_.resize(w);
    return removed;
}

bool
FaultInjector::matches(const Active &f, const flash::PhysPageAddr &a) const
{
    if (f.spec.plane != planeIndex(geom_, a))
        return false;
    return !f.spec.block || *f.spec.block == a.block;
}

double
FaultInjector::rberMultiplier(const flash::PhysPageAddr &a) const
{
    double mult = 1.0;
    for (const Active &f : active_)
        if (f.spec.cls == FaultClass::kElevatedRber && matches(f, a))
            mult *= f.spec.rberMultiplier;
    return mult;
}

double
FaultInjector::disturbMultiplier(const flash::PhysPageAddr &a) const
{
    double mult = 1.0;
    for (const Active &f : active_)
        if (f.spec.cls == FaultClass::kReadDisturbHot && matches(f, a))
            mult *= f.spec.rberMultiplier;
    return mult;
}

double
FaultInjector::retentionMultiplier(const flash::PhysPageAddr &a) const
{
    double mult = 1.0;
    for (const Active &f : active_)
        if (f.spec.cls == FaultClass::kRetentionLoss && matches(f, a))
            mult *= f.spec.rberMultiplier;
    return mult;
}

bool
FaultInjector::planeDead(flash::PlaneIndex p) const
{
    const flash::PhysPageAddr at = planeAddr(geom_, p);
    for (const Active &f : active_) {
        if (f.spec.cls == FaultClass::kDeadPlane && f.spec.plane == p)
            return true;
        const flash::PhysPageAddr f_at = planeAddr(geom_, f.spec.plane);
        const bool same_chip =
            chipIndex(geom_, f_at) == chipIndex(geom_, at);
        if (f.spec.cls == FaultClass::kDeadChip && same_chip)
            return true;
        if (f.spec.cls == FaultClass::kDieFail && same_chip &&
            f_at.die == at.die)
            return true;
    }
    return false;
}

std::vector<flash::StuckBitline>
FaultInjector::stuckBitlines(flash::PlaneIndex p) const
{
    std::vector<flash::StuckBitline> out;
    for (const Active &f : active_)
        if (f.spec.cls == FaultClass::kStuckBitline && f.spec.plane == p)
            out.insert(out.end(), f.stuck.begin(), f.stuck.end());
    return out;
}

bool
FaultInjector::programShouldFail(const flash::PhysPageAddr &a)
{
    bool fail = false;
    for (Active &f : active_) {
        if (f.spec.cls != FaultClass::kProgramFailure || !matches(f, a))
            continue;
        ++f.attempts;
        if (f.attempts > f.spec.onset &&
            (f.attempts - f.spec.onset) % f.spec.failPeriod == 0)
            fail = true;
    }
    if (fail)
        ++progFails_;
    return fail;
}

bool
FaultInjector::eraseShouldFail(const flash::PhysPageAddr &a)
{
    bool fail = false;
    for (Active &f : active_) {
        if (f.spec.cls != FaultClass::kEraseFailure || !matches(f, a))
            continue;
        ++f.attempts;
        if (f.attempts > f.spec.onset &&
            (f.attempts - f.spec.onset) % f.spec.failPeriod == 0)
            fail = true;
    }
    if (fail)
        ++eraseFails_;
    return fail;
}

PowerCut
FaultInjector::powerCutOnOp(bool is_program)
{
    if (powerLost_)
        return PowerCut::kBeforeOp;
    PowerCut cut = PowerCut::kNone;
    for (Active &f : active_) {
        if (f.spec.cls != FaultClass::kPowerLoss || f.fired)
            continue;
        ++f.attempts;
        if (f.attempts > f.spec.onset) {
            f.fired = true;
            powerLost_ = true;
            ++powerCuts_;
            cut = (is_program && f.cutMid) ? PowerCut::kMidProgram
                                           : PowerCut::kBeforeOp;
        }
    }
    return cut;
}

std::uint64_t
FaultInjector::scheduleFingerprint() const
{
    // FNV-1a over every schedule-determining field.
    std::uint64_t h = 0xCBF29CE484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    };
    for (const Active &f : active_) {
        mix(static_cast<std::uint64_t>(f.spec.cls));
        mix(f.spec.plane);
        mix(f.spec.block ? 1 + static_cast<std::uint64_t>(*f.spec.block)
                         : 0);
        mix(static_cast<std::uint64_t>(f.spec.rberMultiplier * 1e6));
        mix(f.spec.stuckCount);
        mix(f.spec.stuckValue);
        mix(f.spec.failPeriod);
        mix(f.spec.onset);
        mix(f.spec.cls == FaultClass::kPowerLoss ? 1 + f.cutMid : 0);
        for (const flash::StuckBitline &s : f.stuck) {
            mix(s.bitline);
            mix(s.value);
        }
    }
    return h;
}

} // namespace parabit::ssd
