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
 * its drain queues nothing and runs no event.
 *
 * The policies that reorder or preempt (ooo_die_first, read_priority)
 * queue each phase on its resource at submit and book at drain(), which
 * runs the batch through the scheduler's one event engine, reset for
 * each drain.  Their drain costs O(transactions in the batch) plus the
 * policy's queue scans: a queued phase keeps a handle to its queue
 * slot, and the end-of-drain check visits only the resources the batch
 * queued on.  The engine only orders events — every booking is computed
 * from logical times (max(phase-chain earliest, resource nextFree)),
 * never from the engine clock.
 *
 * Either way completions are read by id - first id of the batch.
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
    /** One phase booking request against a specific resource; its
     *  duration is the transaction's ticks for that kind. */
    struct Phase
    {
        std::uint32_t resource = 0; ///< index into resources_
        /** Event path: handle of the phase's queue entry, its position
         *  in the resource queue counted from Resource::base. */
        std::uint32_t slot = 0;
        PhaseKind kind = PhaseKind::kArray;
    };

    struct TxState
    {
        DeviceTransaction tx;
        std::uint64_t id = 0;
        /** Attribution token of the host command that submitted it. */
        std::optional<std::uint64_t> cmd;
        /** In canonical order (xfer-in, array, xfer-out), zero-duration
         *  phases elided: the first numPhases entries are used. */
        std::array<Phase, 3> phases{};
        std::uint8_t numPhases = 0;
        bool done = false;
        int suspends = 0;
        Tick complete = 0;
        Tick arrayExecuted = 0;
        Tick forceAt = 0; ///< set at first suspension
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

    /** Accumulate one booked interval into @p st's stage breakdown and
     *  emit it on the attached TraceSink track (if any), plus — when
     *  @p st belongs to an attributed host command — a flow step
     *  binding the span to the command's NVMe flow. */
    void noteSpan(std::size_t res, TxState &st, PhaseKind kind,
                  Tick start, Tick end);

    void buildPhases(TxState &st) const;
    Tick firstEarliest(const TxState &st) const;

    /** Book every phase of @p st in closed form and finish it: every
     *  FCFS transaction, and a pure delay under any policy. */
    void book(TxState &st);
    /** Event path: queue every phase of txs_[txIdx]. */
    void enqueue(std::size_t txIdx);

    void onEvent(const EventEngine::Event &ev);
    void markReady(std::size_t txIdx, std::size_t phaseIdx, Tick earliest);
    void dispatch(std::size_t res);
    void startEntry(std::size_t res, std::size_t qIdx);
    void onComplete(std::size_t res, std::uint64_t gen);
    void maybeSuspend(std::size_t res);
    void finishTx(TxState &st, Tick end);

    flash::FlashGeometry geo_;
    flash::FlashTiming timing_;
    SchedConfig cfg_;
    /** The event path's arbiter; null under FCFS (makePolicy). */
    std::unique_ptr<SchedulerPolicy> policy_;

    std::vector<Resource> resources_; ///< channels first, then planes
    /** Current batch in submission order; txs_[i].id is the batch's
     *  first id + i. */
    std::vector<TxState> txs_;
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
