/**
 * @file
 * Configuration of the transaction-scheduler subsystem.
 *
 * The scheduler replaces the monolithic greedy Timeline booking with
 * per-die / per-channel queues arbitrated by a pluggable policy.  The
 * default configuration (FCFS) is tick-identical to the historical
 * greedy path, so existing latency results are the regression anchor;
 * every other knob is opt-in.  Command issue is always a die-side
 * delay (DeviceTransaction::cmdTicks).
 */

#ifndef PARABIT_SSD_SCHED_SCHED_CONFIG_HPP_
#define PARABIT_SSD_SCHED_SCHED_CONFIG_HPP_

#include <cstdint>

#include "common/units.hpp"
#include "flash/timing.hpp"

namespace parabit::ssd::sched {

/** Arbitration policy; see policy.hpp for semantics. */
enum class SchedPolicyKind : std::uint8_t
{
    /** Strict submission order per resource — reproduces the legacy
     *  greedy Timeline path tick-for-tick (the regression anchor). */
    kFcfs = 0,
    /** Work-conserving: an independent die/channel proceeds past a
     *  blocked head-of-line transaction. */
    kOutOfOrderDieFirst,
    /** Out-of-order plus read preference and program/erase
     *  suspend-resume: host reads jump queues and may suspend an
     *  in-flight array operation (bounded; see SchedConfig). */
    kReadPriority,
};

inline constexpr int kNumSchedPolicies = 3;

const char *policyName(SchedPolicyKind k);

/** Scheduler knobs; defaults reproduce the legacy timing exactly. */
struct SchedConfig
{
    SchedPolicyKind policy = SchedPolicyKind::kFcfs;

    /**
     * Read-priority policy: how many times one program/erase may be
     * suspended by arriving reads.  After the budget is spent the
     * remainder outranks further reads, which hard-bounds the extra
     * latency of the suspended operation.
     */
    int maxSuspendsPerOp = 4;

    /**
     * Read-priority policy: once a suspended remainder has waited this
     * long it outranks arriving reads even with suspend budget left —
     * the second half of the bounded-extra-latency guarantee.
     */
    Tick maxSuspendedTicks = flash::kDefaultMaxSuspended;

    /**
     * Read-priority policy: a background scrub scan (TxClass::kScrub)
     * normally yields to every other ready entry, but once it has been
     * deferred this long past its earliest start it rejoins normal
     * oldest-first arbitration — the scrubber's anti-starvation bound.
     */
    Tick scrubMaxDeferredTicks = flash::kDefaultScrubMaxDeferred;
};

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_SCHED_CONFIG_HPP_
