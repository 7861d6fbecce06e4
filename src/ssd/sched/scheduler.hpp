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
 * did.  submitEach() submits a whole op list under one profiler scope
 * from a caller's translation function, which inlines into its loop.
 *
 * FCFS (the default) books every phase of a transaction the moment it
 * is submitted: in submission order, each phase starts at
 * max(end of the previous phase, resource nextFree) — the legacy greedy
 * arithmetic.  That booking, book(), is the one closed-form routine: it
 * reserves the transaction's (at most three) phases straight from its
 * durations on the resources' Lanes (Timeline plus the batch's entry
 * count, nothing else), and stores one Outcome.  Stage ticks, trace
 * spans and flow steps sit behind one branch, taken only while a host
 * command is attributed or a TraceSink is attached.  An FCFS
 * transaction is finished when submit returns, so its drain queues
 * nothing and runs no event.
 *
 * The policies that reorder or preempt (ooo_die_first, read_priority)
 * queue each phase on its resource at submit and book at drain(), which
 * runs the batch through the scheduler's one event engine, reset for
 * each drain.  Their drain costs O(transactions in the batch) plus the
 * policy's queue scans: a queued phase keeps a handle to its queue
 * slot, and the end-of-drain check visits only the resources the batch
 * queued on.  The engine only orders events — every booking is computed
 * from logical times (max(phase-chain earliest, resource nextFree)),
 * never from the engine clock.  What only this path needs sits beside
 * the FCFS state, indexed the same way: per transaction an EventTx
 * (phases, queue slots, command token, forceAt, stage ticks) beside its
 * Outcome, and per resource a Queue (queue, running booking,
 * generation) beside its Lane, allocated only under these policies.
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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/invariant.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
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

    /** Whether every transaction is booked when it is submitted (FCFS):
     *  its ticks then follow from submission order and ready ticks
     *  alone, wherever the batches end.  The event-path policies
     *  arbitrate among a batch's transactions, so there a batch
     *  boundary can change a booking. */
    bool booksAtSubmit() const { return policy_ == nullptr; }

    /**
     * Add @p tx to the current batch: under FCFS book it now, otherwise
     * queue it for the next drain().  @return its id.  The first submit
     * after a drain starts a new batch and discards the previous
     * batch's completions and records.
     */
    std::uint64_t
    submit(const DeviceTransaction &tx)
    {
        return submitEach(1, [&tx](std::size_t) -> const DeviceTransaction & {
                   return tx;
               }).lo;
    }

    /**
     * Submit @p n transactions, @p tx_at(0) first, as n submit() calls
     * would, under one profiler scope.  @p tx_at(i) returns the i-th
     * DeviceTransaction (by value or reference); it is called once per
     * transaction, in order, and inlines into the booking loop.
     * @return the id range; empty, with no batch opened, when @p n is 0.
     */
    template <class TxAt>
    TxGroup submitEach(std::size_t n, TxAt &&tx_at);

    /**
     * Close the batch: run the event engine until every queued
     * transaction completes (nothing to run under FCFS).  @return the
     * latest completion tick of the batch (0 if empty).  Panics if
     * arbitration stalls (a policy bug).
     */
    Tick
    drain()
    {
        batchOpen_ = false;
        maxQueueDepth_.noteMax(static_cast<double>(batchDepth_));
        // FCFS finished every transaction at submit.
        return eventTxs_.empty() ? batchMax_ : runEvents();
    }

    /** Completion tick of @p id from the last drained batch.  Panics
     *  if @p id is not a transaction of that batch, or if a batch is
     *  open (submitted, not yet drained). */
    Tick completionOf(std::uint64_t id) const;

    /** Latest completion over @p g, or @p fallback when @p g is empty. */
    Tick
    groupCompletion(TxGroup g, Tick fallback) const
    {
        if (g.empty())
        {
            return fallback;
        }
        // The whole drained batch (a scheduleOps of its own): its
        // latest completion was kept as its transactions finished.
        if (!batchOpen_ && g.lo == firstId_ && g.size() == outcomes_.size())
        {
            return batchMax_;
        }
        return latestCompletion(g);
    }

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
    void
    beginCommandAttribution(std::uint64_t token)
    {
        curCmd_ = token;
        observed_ = true;
    }
    void
    endCommandAttribution()
    {
        curCmd_.reset();
        observed_ = sink_ != nullptr;
    }
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
    /** A resource's FCFS state, all a closed-form booking touches: its
     *  Timeline and the phase entries the batch numbered depthBatch
     *  sent it. */
    struct Lane
    {
        Timeline tl;
        std::uint64_t depthBatch = 0;
        std::uint32_t depth = 0;
    };

    /** Event path: one phase booking request against a resource. */
    struct Phase
    {
        std::uint32_t resource = 0; ///< index into lanes_ and queues_
        /** Handle of the phase's queue entry, its position in the
         *  resource queue counted from Queue::base. */
        std::uint32_t slot = 0;
        PhaseKind kind = PhaseKind::kArray;
        Tick ticks = 0; ///< booked duration
    };

    /** Event path: a transaction's phases in canonical order (xfer-in,
     *  array, xfer-out), zero-duration phases elided. */
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

    /** Event path: a resource's queue and running booking, beside its
     *  Lane at the same index. */
    struct Queue
    {
        /** Queued phase entries in arrival order.  A started entry
         *  stays in place as a tombstone (policy.hpp) until it reaches
         *  the front, so every entry behind it keeps its slot. */
        std::deque<QueueEntry> q;
        /** Slot of q.front(): entries popped since the queue was last
         *  empty. */
        std::uint32_t base = 0;
        bool busy = false;
        Running running;
        std::uint64_t gen = 0;
    };

    std::size_t
    arrayResource(const flash::PhysPageAddr &a) const
    {
        return static_cast<std::size_t>(geo_.channels) +
               flash::planeIndex(geo_, a);
    }
    /** "channel c" or "die p", the subject of resource @p res. */
    std::string resourceName(std::size_t res) const;
    std::string dieTrackName(std::uint32_t plane_ordinal) const;

    /** First submit after a drain: discard the drained batch's records
     *  and completions (callers must have flushed any group queries by
     *  now) so memory stays bounded.  Stage aggregates in cmdStages_
     *  survive (a formula command spans several drains). */
    void
    openBatch()
    {
        outcomes_.clear();
        eventTxs_.clear();
        firstId_ = nextId_;
        batchMax_ = 0;
        batchDepth_ = 0;
        batchOpen_ = true;
        ++batch_;
    }

    /** groupCompletion() over part of a batch: every id's completion. */
    Tick latestCompletion(TxGroup g) const;

    /** Count one phase entry of the open batch on @p l. */
    void
    countEntry(Lane &l)
    {
        if (l.depthBatch != batch_)
        {
            l.depthBatch = batch_;
            l.depth = 0;
        }
        batchDepth_ = std::max(batchDepth_, ++l.depth);
    }

    /** Book @p ticks on @p l from @p ready; @return the start. */
    Tick
    reserve(Lane &l, Tick ready, Tick ticks)
    {
        countEntry(l);
        return l.tl.reserve(ready, ticks);
    }

    /**
     * The closed-form booking of transaction @p txIdx, which is @p tx:
     * each phase at max(end of the previous one, its resource's
     * nextFree).  Every FCFS transaction, and a pure delay under any
     * policy.  @return its completion tick.
     */
    Tick book(std::size_t txIdx, const DeviceTransaction &tx);

    /** One phase as book() booked it (zero ticks: none). */
    struct Booked
    {
        PhaseKind kind;
        std::size_t res;
        Tick start;
        Tick ticks;
    };

    /** book()'s observed half: stage ticks into the open command's
     *  aggregate, spans and flow steps on the sink, for transaction
     *  @p txIdx of class @p cls with its @p phases in canonical order.
     *  The transaction itself never escapes book(), so the hot path
     *  keeps it in registers. */
    void observe(std::size_t txIdx, TxClass cls, Tick earliest,
                 const std::array<Booked, 3> &phases);

    /** A finished transaction's batch maximum and latency sample (the
     *  caller counts it on completedCount_). */
    void
    noteCompletion(TxClass cls, Tick ready_at, Tick end)
    {
        batchMax_ = std::max(batchMax_, end);
        obs::Hist &h = latencyHist_[static_cast<std::size_t>(cls)];
        if (h.live())
        {
            // Tick is picoseconds; the registry histogram is in us.
            h.sample(static_cast<double>(end - ready_at) / 1e6);
        }
    }

    /** Fold one finished transaction's @p st into @p cmd's aggregate. */
    void foldStages(std::uint64_t cmd, const StageTicks &st);

    /** Accumulate one booked interval of transaction @p id (class
     *  @p cls) into @p st and emit it on the attached TraceSink track
     *  (if any), plus — when @p cmd names an attributed host command —
     *  a flow step binding the span to the command's NVMe flow. */
    void noteSpan(std::size_t res, std::uint64_t id, TxClass cls,
                  const std::optional<std::uint64_t> &cmd, StageTicks &st,
                  PhaseKind kind, Tick start, Tick end);
    /** noteSpan for a queued transaction, from its EventTx. */
    void noteSpan(std::size_t res, std::size_t txIdx, PhaseKind kind,
                  Tick start, Tick end);

    /** @name Event path */
    /// @{
    /** drain() of a batch with queued transactions. */
    Tick runEvents();
    Phases buildPhases(const DeviceTransaction &tx) const;
    /** Append @p tx to the batch and queue each of its phases. */
    void enqueue(const DeviceTransaction &tx);
    /** Transaction @p txIdx completes at @p end. */
    void complete(std::size_t txIdx, Tick end);
    void onEvent(const EventEngine::Event &ev);
    void markReady(std::size_t txIdx, std::size_t phaseIdx, Tick earliest);
    void dispatch(std::size_t res);
    void startEntry(std::size_t res, std::size_t qIdx);
    void onComplete(std::size_t res, std::uint64_t gen);
    void maybeSuspend(std::size_t res);
    /// @}

    flash::FlashGeometry geo_;
    flash::FlashTiming timing_;
    SchedConfig cfg_;
    /** The event path's arbiter; null under FCFS (makePolicy). */
    std::unique_ptr<SchedulerPolicy> policy_;

    std::vector<Lane> lanes_; ///< channels first, then planes
    /** Event path: parallel to lanes_ (empty under FCFS). */
    std::vector<Queue> queues_;
    /** Current batch in submission order; outcomes_[i] is transaction
     *  firstId_ + i. */
    std::vector<Outcome> outcomes_;
    /** Event path: parallel to outcomes_ (empty under FCFS). */
    std::vector<EventTx> eventTxs_;
    std::uint64_t firstId_ = 0;
    Tick batchMax_ = 0; ///< latest completion of the batch so far
    /** Most phase entries one resource received in the open batch;
     *  noted on maxQueueDepth_ when the batch drains. */
    std::uint32_t batchDepth_ = 0;
    std::vector<obs::Hist> latencyHist_; ///< one per TxClass (us)

    obs::TraceSink *sink_ = nullptr;
    std::vector<obs::TrackId> resourceTracks_; ///< parallel to lanes_
    /** A command is attributed or a sink attached: book() observes. */
    bool observed_ = false;

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

template <class TxAt>
TxGroup
TransactionScheduler::submitEach(std::size_t n, TxAt &&tx_at)
{
    if (n == 0)
    {
        return {};
    }
    PROFILE_SCOPE(obs::Subsystem::kSched);
    if (!batchOpen_)
    {
        openBatch();
    }
    const TxGroup g{nextId_, nextId_ + n};
    nextId_ += n;
    submitted_ += n;
    if (policy_) [[unlikely]]
    {
        for (std::size_t i = 0; i < n; ++i)
        {
            enqueue(tx_at(i));
        }
        return g;
    }
    for (std::size_t i = 0; i < n; ++i)
    {
        const DeviceTransaction &tx = tx_at(i);
        const Tick end = book(outcomes_.size(), tx);
        outcomes_.push_back(Outcome{tx.readyAt, end, tx.arrayTicks,
                                    tx.arrayTicks, 0, tx.cls, true});
        noteCompletion(tx.cls, tx.readyAt, end);
    }
    completedCount_ += n;
    return g;
}

inline Tick
TransactionScheduler::book(std::size_t txIdx, const DeviceTransaction &tx)
{
    // Submission order is the FCFS order of every resource, and each
    // phase follows the previous one of its transaction, so booking
    // phase after phase now gives each the start the head-of-line
    // queue would: max(its earliest, the resource's nextFree).  The
    // command overhead is a die-side delay before the first phase.
    const Tick earliest = tx.readyAt + tx.cmdTicks;
    const std::size_t ch = tx.addr.channel;
    const std::size_t die = arrayResource(tx.addr);
    Tick in = 0, array = 0, out = 0; // phase starts
    Tick t = earliest;
    if (tx.xferInTicks > 0)
    {
        in = reserve(lanes_[ch], t, tx.xferInTicks);
        t = in + tx.xferInTicks;
    }
    if (tx.arrayTicks > 0)
    {
        array = reserve(lanes_[die], t, tx.arrayTicks);
        t = array + tx.arrayTicks;
    }
    if (tx.xferOutTicks > 0)
    {
        out = reserve(lanes_[ch], t, tx.xferOutTicks);
        t = out + tx.xferOutTicks;
    }
    if (observed_) [[unlikely]]
    {
        observe(txIdx, tx.cls, earliest,
                {{{PhaseKind::kXferIn, ch, in, tx.xferInTicks},
                  {PhaseKind::kArray, die, array, tx.arrayTicks},
                  {PhaseKind::kXferOut, ch, out, tx.xferOutTicks}}});
    }
    return t;
}

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_SCHEDULER_HPP_
