/**
 * @file
 * parabit-verify --sched: model checks for the transaction scheduler.
 *
 * The scheduler refactor (src/ssd/sched) replays device transactions
 * through per-die/per-channel queues under a pluggable policy.  Its
 * correctness argument rests on a handful of structural invariants that
 * no single runtime test pins for every policy; this leg sweeps every
 * SchedulerPolicy x geometry over a deterministic mixed transaction
 * trace and mechanically checks:
 *
 *  - mutual exclusion and canonical phase order: every booked phase is
 *    emitted as a span on a local obs::TraceSink, and parabit-trace's
 *    checker (tools/trace) must find no two spans overlapping on any
 *    die or channel track and each transaction's spans in xfer_in ->
 *    array (suspend/resume included) -> xfer_out order;
 *
 *  - busy accounting: each resource's busy-tick counter equals the
 *    booked phase ticks of the transactions that used it (StageTicks,
 *    read back per transaction through the command-attribution
 *    bracket: xfer phases on the channel, array/suspend/resume on the
 *    plane);
 *
 *  - work conservation under suspend-resume: the array time actually
 *    executed equals the array time planned, for every transaction;
 *
 *  - FCFS anchor: under the fcfs policy every transaction completes at
 *    exactly the tick the legacy greedy immediate-booking algorithm
 *    assigns it, and the final per-resource busy times agree.
 */

#ifndef PARABIT_TOOLS_VERIFY_SCHED_CHECK_HPP_
#define PARABIT_TOOLS_VERIFY_SCHED_CHECK_HPP_

#include "verifier.hpp"

namespace parabit::verify {

/** Run the scheduler invariant sweep; divergences append to @p r. */
void checkScheduler(Report &r);

} // namespace parabit::verify

#endif // PARABIT_TOOLS_VERIFY_SCHED_CHECK_HPP_
