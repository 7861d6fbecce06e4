/**
 * @file
 * Deterministic, seeded fault injection for the reliability layer.
 *
 * The paper (Section 5.8) concedes that ParaBit results bypass ECC and
 * that real deployments lean on read-retry and redundancy; to evaluate
 * those mitigations this module injects the fault classes a NAND device
 * actually suffers, on a schedule that is a pure function of the seed:
 *
 *  - kElevatedRber: a block (or whole plane) whose raw per-sensing bit
 *    error rate is multiplied — the cycled/worn-region case of Fig 17;
 *  - kStuckBitline: sense-amplifier columns pinned to a fixed value,
 *    corrupting the same bit position of every sensing in the plane;
 *  - kProgramFailure: page programs into the region fail periodically
 *    (every failPeriod-th attempt after onset), the classic bad-block
 *    trigger;
 *  - kEraseFailure: block erases fail on the same periodic schedule;
 *  - kDeadPlane / kDeadChip: the plane (or every plane of the chip)
 *    rejects all array operations;
 *  - kReadDisturbHot: sensings into the region charge their neighbor
 *    wordlines rberMultiplier times the normal disturb units, so the
 *    region's predicted RBER climbs that much faster under read traffic
 *    (drives the patrol scrubber's disturb-triggered refresh);
 *  - kRetentionLoss: the region's wordlines age rberMultiplier times
 *    faster than simulated time (charge-leak acceleration), driving
 *    retention-triggered refresh;
 *  - kDieFail: every plane of the die containing the target plane
 *    rejects all array operations — the whole-die failure RAIN parity
 *    is built to survive;
 *  - kPowerLoss: sudden power-off — execution is cut deterministically
 *    at a seeded PhysOp boundary (spec.onset = number of op boundaries
 *    that complete first).  When the boundary lands on a page program
 *    the cut may strike *mid-tPROG*, tearing the wordline and
 *    corrupting the paired LSB page (the MLC shared-wordline hazard);
 *    whether a program boundary cuts before or mid-program is drawn
 *    from the seed unless the spec pins it.
 *
 * Determinism contract: two injectors built with the same geometry and
 * seed, given the same addFault() calls and the same query sequence,
 * return identical answers — scheduleFingerprint() captures the derived
 * schedule so tests can assert replayability.  The injector is passive:
 * SsdDevice::faultInjector() wires its queries into the chip/plane fault
 * hooks and applies the plane-level state (dead flags, stuck bitlines).
 */

#ifndef PARABIT_SSD_FAULT_INJECTOR_HPP_
#define PARABIT_SSD_FAULT_INJECTOR_HPP_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "flash/geometry.hpp"
#include "obs/metrics.hpp"
#include "flash/plane.hpp"
#include "ssd/allocator.hpp"

namespace parabit::ssd {

/** The injectable fault classes; see file comment. */
enum class FaultClass : std::uint8_t
{
    kElevatedRber = 0,
    kStuckBitline,
    kProgramFailure,
    kEraseFailure,
    kDeadPlane,
    kDeadChip,
    kPowerLoss,
    // Media-management classes (PR "background media management").
    // Deliberately outside randomSchedule()'s draw range so legacy
    // seeded schedules stay bit-identical; arm them with addFault().
    kReadDisturbHot,
    kRetentionLoss,
    kDieFail,
};

const char *faultClassName(FaultClass c);

/**
 * Whether a fault class models a *transient* condition — one a real
 * device shakes off once the environmental stress ends (storm over,
 * marginal power rail restored, thermal excursion passed).  Permanent
 * classes (dead plane/chip/die, armed power loss) survive
 * FaultInjector::clearTransient().
 */
bool faultClassTransient(FaultClass c);

/** How a power-loss fault strikes one PhysOp boundary. */
enum class PowerCut : std::uint8_t
{
    kNone = 0,   ///< power is up; the op proceeds
    kBeforeOp,   ///< cut before the op starts (op never executes)
    kMidProgram, ///< cut mid-tPROG: the wordline is torn
};

/** One fault to inject. */
struct FaultSpec
{
    FaultClass cls = FaultClass::kElevatedRber;
    /** Target plane (flat index); for kDeadChip, any plane of the chip. */
    flash::PlaneIndex plane = 0;
    /** Restrict kElevatedRber / kProgramFailure / kEraseFailure to one
     *  block of the plane (nullopt = whole plane). */
    std::optional<std::uint32_t> block;
    /** kElevatedRber: multiplier on the raw per-sensing RBER.
     *  kReadDisturbHot / kRetentionLoss reuse this field as their
     *  acceleration factor (disturb charge / aging-rate multiplier). */
    double rberMultiplier = 100.0;
    /** kStuckBitline: number of stuck columns (positions drawn from the
     *  injector seed) and the value they are pinned to. */
    std::uint32_t stuckCount = 4;
    bool stuckValue = false;
    /** kProgramFailure / kEraseFailure: the Nth, 2Nth, ... matching
     *  attempt after @p onset fails (1 = every attempt). */
    std::uint32_t failPeriod = 4;
    /** Matching attempts that succeed before the periodic failures.
     *  For kPowerLoss: the number of PhysOp boundaries that complete
     *  before the cut (0 = the very first op is cut). */
    std::uint32_t onset = 0;
    /** kPowerLoss only: force the cut mode when the boundary lands on a
     *  program — true = mid-tPROG (torn wordline), false = before the
     *  op.  nullopt (default) draws the mode from the injector seed. */
    std::optional<bool> cutMidProgram;

    bool operator==(const FaultSpec &) const = default;
};

/**
 * Shape of a correlated fault storm (FaultInjector::stormSchedule): a
 * burst of faults concentrates on one "focus" chip — correlated damage,
 * the way a marginal power rail or a thermal excursion hits co-located
 * dies — with a seeded fraction leaking to random planes elsewhere.
 * Only transient classes are drawn, so clearTransient() models the
 * storm passing.
 */
struct StormConfig
{
    /** Number of bursts; each burst draws a fresh focus chip. */
    std::uint32_t bursts = 4;
    /** Faults per burst. */
    std::uint32_t faultsPerBurst = 6;
    /** Probability that a burst fault lands on the focus chip (the rest
     *  scatter over the whole device). */
    double localityBias = 0.75;
};

/** Deterministic fault injector; see file comment. */
class FaultInjector
{
  public:
    FaultInjector(const flash::FlashGeometry &geom, std::uint64_t seed);

    std::uint64_t seed() const { return seed_; }

    /**
     * Register @p spec.  Stuck-bitline positions are drawn here, from
     * the injector's own stream, so registration order (not query
     * order) determines them.
     */
    void addFault(const FaultSpec &spec);

    /**
     * A reproducible random schedule of @p count faults over the whole
     * device: class, target, and parameters are all drawn from @p seed.
     * Feed the result to addFault() to apply it.
     */
    static std::vector<FaultSpec>
    randomSchedule(const flash::FlashGeometry &geom, std::uint64_t seed,
                   std::size_t count);

    /**
     * A reproducible *correlated* schedule — bursty faults clustered on
     * per-burst focus chips (see StormConfig) — that is a pure function
     * of @p seed.  Draws only transient classes, so the storm can be
     * lifted again with clearTransient().  Feed to addFault() to apply.
     */
    static std::vector<FaultSpec>
    stormSchedule(const flash::FlashGeometry &geom, std::uint64_t seed,
                  const StormConfig &cfg);

    const std::vector<FaultSpec> &faults() const { return specs_; }

    /**
     * Drop every registered transient fault (faultClassTransient) —
     * the storm has passed.  Permanent damage (dead plane/chip/die)
     * and armed power-loss faults stay.  The schedule fingerprint
     * changes accordingly.  @return the number of faults removed.
     * Callers that mirror plane state (SsdDevice) must re-derive it;
     * use SsdDevice::clearTransientFaults() from device code.
     */
    std::size_t clearTransient();

    /** @name Queries (wired into the chip/plane hooks). */
    /// @{

    /** Combined RBER multiplier for a sensing of @p a's wordline. */
    double rberMultiplier(const flash::PhysPageAddr &a) const;

    /** Combined disturb-charge multiplier for a sensing of @p a's
     *  wordline (kReadDisturbHot hot spots). */
    double disturbMultiplier(const flash::PhysPageAddr &a) const;

    /** Combined retention-aging multiplier for @p a's wordline
     *  (kRetentionLoss charge-leak acceleration). */
    double retentionMultiplier(const flash::PhysPageAddr &a) const;

    bool planeDead(flash::PlaneIndex p) const;

    /** Stuck columns of plane @p p (empty if none). */
    std::vector<flash::StuckBitline> stuckBitlines(flash::PlaneIndex p) const;

    /** Consume one program attempt at @p a from the schedule.
     *  @return true if that attempt fails. */
    bool programShouldFail(const flash::PhysPageAddr &a);

    /** Consume one erase attempt of @p a's block from the schedule. */
    bool eraseShouldFail(const flash::PhysPageAddr &a);

    /**
     * Consume one PhysOp boundary from every armed kPowerLoss fault.
     * Once a fault's boundary count is reached the device is powered
     * off: this call returns the cut mode (kMidProgram only possible
     * when @p is_program) and every later call returns kBeforeOp until
     * clearPowerLoss() models power restoration.
     */
    PowerCut powerCutOnOp(bool is_program);

    /** Whether a power-loss fault has fired and power is still down. */
    bool powerLost() const { return powerLost_; }

    /** Power restored (device reboot).  Fired faults stay spent; a
     *  separately armed kPowerLoss fault can still fire later. */
    void clearPowerLoss() { powerLost_ = false; }
    /// @}

    /** @name Injection counters. */
    /// @{
    std::uint64_t programFailuresInjected() const
    {
        return progFails_.value();
    }
    std::uint64_t eraseFailuresInjected() const
    {
        return eraseFails_.value();
    }
    /** kPowerLoss faults that actually cut power. */
    std::uint64_t powerCutsInjected() const { return powerCuts_.value(); }
    /// @}

    /**
     * Stable hash of the registered schedule (specs plus every derived
     * stuck-bitline position) — equal seeds and registration sequences
     * give equal fingerprints, which is what makes fault runs
     * replayable for debugging.
     */
    std::uint64_t scheduleFingerprint() const;

  private:
    struct Active
    {
        FaultSpec spec;
        std::vector<flash::StuckBitline> stuck; ///< kStuckBitline only
        std::uint64_t attempts = 0; ///< program/erase attempts consumed
        bool cutMid = false;        ///< kPowerLoss: resolved cut mode
        bool fired = false;         ///< kPowerLoss: boundary reached
    };

    bool matches(const Active &f, const flash::PhysPageAddr &a) const;

    flash::FlashGeometry geom_;
    std::uint64_t seed_;
    Rng rng_;
    std::vector<Active> active_;
    std::vector<FaultSpec> specs_;
    obs::Counter progFails_{"fault.program_failures_injected"};
    obs::Counter eraseFails_{"fault.erase_failures_injected"};
    obs::Counter powerCuts_{"fault.power_cuts"};
    bool powerLost_ = false;
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_FAULT_INJECTOR_HPP_
