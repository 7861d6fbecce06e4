/**
 * @file
 * TransactionScheduler: per-die/per-channel booking of
 * DeviceTransactions, one booking path per policy.
 *
 * Usage is submit-then-drain: callers submit any number of transactions
 * (each gets a monotonically increasing id, so one batch's ids are
 * contiguous) and then drain(); completions of a batch can be read once
 * it is drained.  Resource Timelines persist across drains, so
 * consecutive batches see the device exactly as the legacy greedy path
 * did.
 *
 * FCFS (the default) books every phase of a transaction the moment it
 * is submitted: in submission order, each phase starts at
 * max(end of the previous phase, resource nextFree) — the legacy greedy
 * arithmetic.  An FCFS transaction is finished when submit returns, so
 * its drain queues nothing and runs no event.  Its phases and stage
 * ticks live on submit's stack; all it stores is its Outcome.
 *
 * The policies that reorder or preempt (ooo_die_first, read_priority)
 * queue each phase on its resource at submit and book at drain(), which
 * runs the batch through the scheduler's one event engine, reset for
 * each drain.  Their drain costs O(transactions in the batch) plus the
 * policy's queue scans: a queued phase keeps a handle to its queue
 * slot, and the end-of-drain check visits only the resources the batch
 * queued on.  The engine only orders events — every booking is computed
 * from logical times (max(phase-chain earliest, resource nextFree)),
 * never from the engine clock.  What only this path needs (phases,
 * queue slots, command token, forceAt, stage ticks) sits in a second
 * vector beside the outcomes, indexed the same way.
 *
 * Either way a transaction's id is its batch's first id plus its index,
 * and completions, records() and the audit read the Outcomes alone.
 *
 * Array resources are plane-granular (the device exploits plane-level
 * parallelism), matching the legacy per-plane Timelines; the stats
 * call them "die" resources for continuity with the paper's die/channel
 * vocabulary.
 *
 * Preemption (read-priority policy): a booking is finalized on the
 * Timeline only when its completion — or suspension — actually happens,
 * so a program/erase array phase can be cut short.  Completion events
 * carry a generation tag and are ignored once stale.
 */

#ifndef PARABIT_SSD_SCHED_SCHEDULER_HPP_
#define PARABIT_SSD_SCHED_SCHEDULER_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/invariant.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "flash/geometry.hpp"
#include "flash/timing.hpp"
#include "ssd/event_engine.hpp"
#include "ssd/sched/policy.hpp"
#include "ssd/sched/sched_config.hpp"
#include "ssd/sched/transaction.hpp"
#include "ssd/timeline.hpp"

namespace parabit::ssd::sched {

/**
 * Where a transaction's (or a whole host command's) ticks went: booked
 * time per phase kind plus the time its phases sat in a resource queue
 * beyond their dependency-readiness (the "scheduler queue" stage of
 * the command lifecycle).  Aggregated per host command via the
 * attribution scope (beginCommandAttribution / takeCommandStages).
 */
struct StageTicks
{
    /** Sum over phases of (booking start - phase earliest): time lost
     *  to arbitration and resource contention. */
    Tick queueWait = 0;
    /** Booked ticks per PhaseKind (xfer_in, array, xfer_out, suspend,
     *  resume), indexed by the enum. */
    std::array<Tick, kNumPhaseKinds> phase{};
    /** Device transactions aggregated in. */
    std::uint64_t txCount = 0;

    void
    add(const StageTicks &o)
    {
        queueWait += o.queueWait;
        for (std::size_t i = 0; i < phase.size(); ++i)
            phase[i] += o.phase[i];
        txCount += o.txCount;
    }
};

/** Per-transaction outcome of the last drained batch. */
struct TxRecord
{
    std::uint64_t id = 0;
    TxClass cls = TxClass::kRead;
    Tick readyAt = 0;
    Tick complete = 0;
    Tick arrayTicks = 0;
    /** Array time actually spent sensing/programming (must equal
     *  arrayTicks — suspend-resume conserves array work). */
    Tick arrayExecuted = 0;
    int suspends = 0;
};

/** Counters and busy-time snapshot. */
struct SchedStats
{
    std::vector<Tick> channelBusy; ///< booked ticks per channel
    std::vector<Tick> dieBusy;     ///< booked ticks per array resource
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t suspends = 0;
    /** Most phase entries one resource received in one batch. */
    std::size_t maxQueueDepth = 0;
};

/** See file comment. */
class TransactionScheduler
{
  public:
    TransactionScheduler(const flash::FlashGeometry &geometry,
                         const flash::FlashTiming &timing,
                         const SchedConfig &cfg);

    const SchedConfig &config() const { return cfg_; }
    const char *policyName() const { return sched::policyName(cfg_.policy); }

    /**
     * Add @p tx to the current batch: under FCFS book it now, otherwise
     * queue it for the next drain().  @return its id.  The first submit
     * after a drain starts a new batch and discards the previous
     * batch's completions and records.
     */
    std::uint64_t submit(const DeviceTransaction &tx);

    /**
     * Close the batch: run the event engine until every queued
     * transaction completes (nothing to run under FCFS).  @return the
     * latest completion tick of the batch (0 if empty).  Panics if
     * arbitration stalls (a policy bug).
     */
    Tick drain();

    /** Completion tick of @p id from the last drained batch.  Panics
     *  if @p id is not a transaction of that batch, or if a batch is
     *  open (submitted, not yet drained). */
    Tick completionOf(std::uint64_t id) const;

    /** Latest completion over @p g, or @p fallback when @p g is empty. */
    Tick groupCompletion(const TxGroup &g, Tick fallback) const;

    SchedStats stats() const;

    /**
     * Emit every booked phase as a span on @p sink (one track per
     * channel, one per plane-granular die).  Pass nullptr to detach.
     * SsdDevice wires the global sink in automatically when tracing is
     * enabled at construction time.
     */
    void setTraceSink(obs::TraceSink *sink);

    /** What one transaction of the current batch keeps under every
     *  policy: its TxRecord without the id, which is the batch's first
     *  id plus the outcome's index. */
    struct Outcome
    {
        Tick readyAt = 0;
        Tick complete = 0;
        Tick arrayTicks = 0;
        /** Array time actually spent (equals arrayTicks once done). */
        Tick arrayExecuted = 0;
        std::uint32_t suspends = 0;
        TxClass cls = TxClass::kRead;
        bool done = false;
    };

    /** Per-transaction records of the last drained batch. */
    std::vector<TxRecord> records() const;

    /** @name Host-command attribution
     * The host interface brackets the submissions serving one NVMe
     * command with begin/end; every transaction submitted inside the
     * bracket is tagged with @p token, and its stage breakdown folds
     * into the command's StageTicks at completion.  Accumulation
     * survives batch restarts (a formula command spans several drains);
     * takeCommandStages reads and erases, so memory stays bounded by
     * in-flight commands.  Tokens are host-allocated and must be unique
     * per command lifetime.
     */
    /// @{
    void beginCommandAttribution(std::uint64_t token) { curCmd_ = token; }
    void endCommandAttribution() { curCmd_.reset(); }
    /** Aggregated stages for @p token (default-initialized if unknown);
     *  erases the entry. */
    StageTicks takeCommandStages(std::uint64_t token);
    /// @}

    /** @name Invariant audit (common/invariant.hpp). */
    /// @{

    /**
     * Audit the scheduler's invariants at a drain boundary, appending
     * violations to @p r:
     *
     *  - sched.queue.drained: no residual queue entries or running
     *    bookings survive a drain (FCFS never queues);
     *  - sched.queue.accounting: lifetime submitted == completed;
     *  - sched.work.conservation: every transaction's executed array
     *    time equals its planned array time (suspend-resume conserves
     *    work) and it completed no earlier than it became ready.
     *
     * Booking exclusivity needs no audit: an FCFS booking starts at the
     * resource's nextFree or later by construction, and every event-path
     * booking is checked as it lands on its resource Timeline
     * (PARABIT_CHECK).
     */
    void auditInvariants(InvariantReport &r) const;
    /// @}

  private:
    /** One phase booking request against a specific resource. */
    struct Phase
    {
        std::uint32_t resource = 0; ///< index into resources_
        /** Event path: handle of the phase's queue entry, its position
         *  in the resource queue counted from Resource::base. */
        std::uint32_t slot = 0;
        PhaseKind kind = PhaseKind::kArray;
        Tick ticks = 0; ///< booked duration
    };

    /** A transaction's phases in canonical order (xfer-in, array,
     *  xfer-out), zero-duration phases elided. */
    struct Phases
    {
        std::array<Phase, 3> at{};
        std::uint8_t n = 0;
    };

    /** Event path: what a queued transaction needs until it finishes,
     *  beside its Outcome at the same index. */
    struct EventTx
    {
        Phases phases;
        Tick earliest = 0; ///< readyAt plus the command overhead
        Tick forceAt = 0;  ///< set at first suspension
        /** Attribution token of the host command that submitted it. */
        std::optional<std::uint64_t> cmd;
        StageTicks stages; ///< where this transaction's ticks went
    };

    struct Running
    {
        std::size_t txIdx = 0;
        std::size_t phaseIdx = 0;
        std::uint64_t gen = 0;
        Tick start = 0;        ///< booking start (incl. resume overhead)
        Tick payloadStart = 0; ///< where actual array/transfer work begins
        Tick plannedEnd = 0;
        bool isResume = false;
    };

    struct Resource
    {
        Timeline tl;
        /** Phase entries the batch numbered depthBatch sent here. */
        std::uint32_t depth = 0;
        std::uint64_t depthBatch = 0;
        /** Event path: queued phase entries in arrival order.  A started
         *  entry stays in place as a tombstone (policy.hpp) until it
         *  reaches the front, so every entry behind it keeps its slot. */
        std::deque<QueueEntry> q;
        /** Slot of q.front(): entries popped since the queue was last
         *  empty. */
        std::uint32_t base = 0;
        bool busy = false;
        Running running;
        std::uint64_t gen = 0;
        bool onChannel = false;
        std::uint32_t index = 0; ///< channel or array-resource ordinal
    };

    std::size_t channelResource(std::uint32_t channel) const;
    std::size_t arrayResource(const flash::PhysPageAddr &a) const;
    std::string dieTrackName(std::uint32_t plane_ordinal) const;

    /** Accumulate one booked interval of transaction @p txIdx into
     *  @p st and emit it on the attached TraceSink track (if any), plus
     *  — when @p cmd names an attributed host command — a flow step
     *  binding the span to the command's NVMe flow. */
    void noteSpan(std::size_t res, std::size_t txIdx,
                  const std::optional<std::uint64_t> &cmd, StageTicks &st,
                  PhaseKind kind, Tick start, Tick end);
    /** noteSpan for a queued transaction, from its EventTx. */
    void noteSpan(std::size_t res, std::size_t txIdx, PhaseKind kind,
                  Tick start, Tick end);

    Phases buildPhases(const DeviceTransaction &tx) const;

    /** Book @p ph from @p earliest in closed form and finish
     *  transaction @p txIdx: every FCFS transaction, and a pure delay
     *  under any policy. */
    void book(std::size_t txIdx, const Phases &ph, Tick earliest,
              const std::optional<std::uint64_t> &cmd, StageTicks &st);
    /** Event path: queue every phase of transaction @p txIdx. */
    void enqueue(std::size_t txIdx);

    void onEvent(const EventEngine::Event &ev);
    void markReady(std::size_t txIdx, std::size_t phaseIdx, Tick earliest);
    void dispatch(std::size_t res);
    void startEntry(std::size_t res, std::size_t qIdx);
    void onComplete(std::size_t res, std::uint64_t gen);
    void maybeSuspend(std::size_t res);
    /** Complete transaction @p txIdx at @p end; its stage ticks @p st
     *  fold into @p cmd's aggregate when it has one. */
    void finishTx(std::size_t txIdx, Tick end,
                  const std::optional<std::uint64_t> &cmd,
                  const StageTicks &st);

    flash::FlashGeometry geo_;
    flash::FlashTiming timing_;
    SchedConfig cfg_;
    /** The event path's arbiter; null under FCFS (makePolicy). */
    std::unique_ptr<SchedulerPolicy> policy_;

    std::vector<Resource> resources_; ///< channels first, then planes
    /** Current batch in submission order; outcomes_[i] is transaction
     *  firstId_ + i. */
    std::vector<Outcome> outcomes_;
    /** Event path: parallel to outcomes_ (empty under FCFS). */
    std::vector<EventTx> eventTxs_;
    std::uint64_t firstId_ = 0;
    Tick batchMax_ = 0; ///< latest completion of the batch so far
    std::vector<obs::Hist> latencyHist_; ///< one per TxClass (us)

    obs::TraceSink *sink_ = nullptr;
    std::vector<obs::TrackId> resourceTracks_; ///< parallel to resources_

    EventEngine eng_; ///< reset at the start of every drain
    std::uint64_t nextId_ = 0;
    bool batchOpen_ = false;
    std::uint64_t batch_ = 0; ///< batches opened so far

    std::optional<std::uint64_t> curCmd_; ///< open attribution bracket
    /** command token -> aggregated stages (until takeCommandStages). */
    std::unordered_map<std::uint64_t, StageTicks> cmdStages_;

    obs::Counter submitted_;
    obs::Counter completedCount_;
    obs::Counter suspendCount_;
    obs::Gauge maxQueueDepth_;
};

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_SCHEDULER_HPP_
