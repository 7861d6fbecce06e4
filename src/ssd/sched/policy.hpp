/**
 * @file
 * Pluggable arbitration policies for the transaction scheduler.
 *
 * A policy answers one question — given the pending phase entries of a
 * single resource (one plane-granular die queue or one channel queue),
 * which entry starts next? — plus whether an arriving entry preempts
 * the array operation currently running on that resource.
 *
 * Determinism: a policy sees only the resource's queue and the current
 * tick, and ties always break toward the lowest submission sequence
 * number, so repeated runs pick identical schedules.
 */

#ifndef PARABIT_SSD_SCHED_POLICY_HPP_
#define PARABIT_SSD_SCHED_POLICY_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "common/units.hpp"
#include "ssd/sched/sched_config.hpp"
#include "ssd/sched/transaction.hpp"

namespace parabit::ssd::sched {

/**
 * One queued phase entry of a resource.  `ready` means every earlier
 * phase of the same transaction has finished and the entry's
 * earliest-start has been reached, i.e. it could start now.
 *
 * A started entry stays in the queue as a tombstone (`started`, no
 * longer `ready`) until every entry ahead of it has started too, so the
 * scheduler can find a queued entry by its position.  Policies skip
 * tombstones as they skip any entry that is not ready; the queue's
 * front is never one.
 */
struct QueueEntry
{
    /** Global submission sequence of the owning transaction. */
    std::uint64_t seq = 0;
    TxClass cls = TxClass::kRead;
    std::size_t txIdx = 0;    ///< owning transaction within the batch
    std::size_t phaseIdx = 0; ///< phase of that transaction
    bool ready = false;
    bool started = false;
    /** Earliest tick the entry may start (phase chaining + readyAt). */
    Tick earliest = 0;
    /** The entry is the resumed remainder of a suspended operation. */
    bool isResume = false;
    /** Array ticks still to execute (resume entries only). */
    Tick resumeRemaining = 0;
    /** Tick at which a parked remainder must outrank reads (resume
     *  entries only; set at the operation's first suspension). */
    Tick forceAt = 0;
};

/** Sentinel: no entry may start now. */
inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Choose the index of the entry to start on an idle resource, or
     * kNoPick to leave the resource idle (e.g. FCFS waiting for a
     * not-yet-ready head of line).  @p queue is the resource's queue in
     * submission order, tombstones included.
     */
    virtual std::size_t pick(const std::deque<QueueEntry> &queue,
                             Tick now) const = 0;

    /**
     * Whether an arriving ready entry of class `incoming` suspends the
     * array operation of class `running` currently occupying the
     * resource.  Only consulted for suspendable running classes.
     */
    virtual bool preempts(TxClass incoming, TxClass running) const = 0;
};

std::unique_ptr<SchedulerPolicy> makePolicy(const SchedConfig &cfg);

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_POLICY_HPP_
