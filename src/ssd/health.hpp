/**
 * @file
 * Device health state machine: the overload/degradation control plane.
 *
 * Real NVMe devices expose a healthy -> degraded -> read-only -> failed
 * progression through their health log pages; this module models the
 * controller side of that progression so fault storms degrade service
 * gracefully instead of hanging or dropping work.  One exponentially
 * decaying *pressure* budget folds together the distress signals the
 * simulator already produces:
 *
 *  - uncorrectable pages (host reads, scrub repairs, formula failures);
 *  - RAIN stripe rebuilds (a rebuild means a die/plane already died);
 *  - bad-block retirements (program/erase failures);
 *  - scrub refresh relocations (media wearing out faster than patrol);
 *  - sustained queue depth (submissions landing in a near-full SQ).
 *
 * Each signal charges a configured weight; the budget decays with a
 * configured half-life, so isolated events fade while a storm's burst
 * accumulates.  Transitions are deterministic and hysteresis-guarded:
 * escalation fires the moment pressure crosses the next state's
 * threshold (one step at a time); de-escalation additionally requires a
 * minimum dwell in the state *and* pressure below the state's own entry
 * threshold times (1 - hysteresis), so the machine cannot oscillate at
 * a boundary.  kFailed is terminal.  While power is lost the machine is
 * frozen: no decay, no transitions (the device's state is legitimately
 * inconsistent mid-cut).
 *
 * Policy is queried, not pushed: the host interface asks admitWrite()/
 * admitFormula()/admitRead() before executing, and the background
 * subsystems (scrub, RAIN destage) ask backgroundThrottled().  Health
 * is observable through the obs registry (health.state / health.pressure
 * gauges, health.transitions counter) and a trace span per completed
 * state occupancy on the device/health track.
 */

#ifndef PARABIT_SSD_HEALTH_HPP_
#define PARABIT_SSD_HEALTH_HPP_

#include <cstdint>
#include <vector>

#include "common/invariant.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "ssd/config.hpp"

namespace parabit::ssd {

/** Health states, ordered by severity (comparisons rely on the order). */
enum class HealthState : std::uint8_t
{
    kHealthy = 0,
    kDegraded = 1,
    kReadOnly = 2,
    kFailed = 3,
};

const char *healthStateName(HealthState s);

/** One recorded state transition (audit + test introspection). */
struct HealthTransition
{
    HealthState from = HealthState::kHealthy;
    HealthState to = HealthState::kHealthy;
    Tick at = 0;          ///< health clock when the transition fired
    double pressure = 0.0; ///< budget value that drove it
    bool powerLost = false; ///< must always be false (audited)
};

/** The health state machine; see file comment. */
class DeviceHealth
{
  public:
    explicit DeviceHealth(const HealthConfig &cfg);

    /**
     * Advance the health clock to @p now: decay the pressure budget and
     * evaluate transitions.  Called from the device's drain path, so
     * every timed batch moves the clock; out-of-order calls are safe
     * (the clock is monotonic, earlier ticks are ignored).
     */
    void pump(Tick now);

    Tick now() const { return now_; }

    /** @name Signal weights (pressure charged per event). */
    /// @{
    static constexpr double kWeightUncorrectable = 4.0; ///< per page
    static constexpr double kWeightRebuild = 1.0; ///< per RAIN page rebuild
    static constexpr double kWeightRefresh = 0.25; ///< per scrub refresh
    /** Per submission that leaves its SQ nearly full. */
    static constexpr double kWeightQueuePressure = 0.5;
    /// @}

    /** @name Signal feeds (each charges its weight). */
    /// @{
    void noteUncorrectable() { charge(kWeightUncorrectable); }
    void noteRebuild() { charge(kWeightRebuild); }
    void noteRetiredBlock() { charge(cfg_.weightRetiredBlock); }
    void noteRefresh() { charge(kWeightRefresh); }
    void noteQueuePressure() { charge(kWeightQueuePressure); }
    /// @}

    /** Record one host write the policy admitted (read-only entry
     *  resets the count; the health suite audits it stays zero there). */
    void noteAdmittedWrite() { ++admittedWritesSinceEntry_; }

    /** Freeze/unfreeze the machine across a power cut (the device syncs
     *  this from the FTL's latched power-loss state every drain). */
    void setPowerLost(bool lost) { powerLost_ = lost; }
    bool powerLost() const { return powerLost_; }

    /** @name State and policy queries. */
    /// @{
    HealthState state() const { return state_; }
    double pressure() const { return pressure_; }

    /** Plain host writes admitted (healthy/degraded only). */
    bool admitWrite() const { return state_ < HealthState::kReadOnly; }

    /** ParaBit formula execution admitted (healthy only: computation is
     *  the first load a distressed device sheds). */
    bool admitFormula() const { return state_ == HealthState::kHealthy; }

    /** Host reads admitted (everything but failed). */
    bool admitRead() const { return state_ != HealthState::kFailed; }

    /** Background scrub/parity-destage throttled (degraded and worse). */
    bool
    backgroundThrottled() const
    {
        return state_ >= HealthState::kDegraded;
    }
    /// @}

    /** @name Introspection. */
    /// @{
    const std::vector<HealthTransition> &transitions() const
    {
        return transitions_;
    }
    std::uint64_t admittedWritesSinceEntry() const
    {
        return admittedWritesSinceEntry_;
    }
    /** Most severe state ever entered (chaos harness reporting). */
    HealthState maxState() const { return maxState_; }
    /// @}

    /** @name Invariant audit (common/invariant.hpp). */
    /// @{

    /**
     * Audit the machine's own consistency, appending violations to
     * @p r:
     *
     *  - health.budget.range: pressure is finite and non-negative, and
     *    every recorded transition moved exactly one step;
     *  - health.transition.powerlost: no transition fired while power
     *    was lost;
     *  - health.readonly.writes: in read-only or failed, zero host
     *    writes were admitted since the state was entered.
     */
    void auditInvariants(InvariantReport &r) const;

    /** Corrupt the pressure budget (health.budget.range).  Test-only. */
    bool debugCorruptPressure();

    /** Forge a transition record stamped power-lost
     *  (health.transition.powerlost).  Test-only. */
    bool debugForgeTransitionWhilePowerLost();

    /** Force read-only with a nonzero admitted-write count
     *  (health.readonly.writes).  Test-only. */
    bool debugCorruptReadOnlyAdmit();
    /// @}

  private:
    void charge(double weight);
    void evaluate();
    void transitionTo(HealthState to);
    double escalateThreshold(HealthState s) const;

    HealthConfig cfg_;
    HealthState state_ = HealthState::kHealthy;
    HealthState maxState_ = HealthState::kHealthy;
    double pressure_ = 0.0;
    Tick now_ = 0;
    Tick enteredAt_ = 0; ///< health clock at the last transition
    bool powerLost_ = false;
    std::uint64_t admittedWritesSinceEntry_ = 0;
    std::vector<HealthTransition> transitions_;

    /** End tick of the last span emitted on the device/health trace
     *  track (per-track exclusivity, like SsdDevice::mediaSpanEnd_). */
    Tick healthSpanEnd_ = 0;

    obs::Gauge stateGauge_{"health.state"};
    obs::Gauge pressureGauge_{"health.pressure"};
    obs::Counter transitionsCount_{"health.transitions"};
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_HEALTH_HPP_
