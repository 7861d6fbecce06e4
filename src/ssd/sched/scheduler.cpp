#include "ssd/sched/scheduler.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace parabit::ssd::sched {

namespace {

/** EventEngine::Event::kind values of the scheduler's events. */
enum EventKind : std::uint8_t
{
    /** A transaction's first phase reaches its earliest start;
     *  index = the transaction's position in the batch. */
    kFirstPhaseReady = 0,
    /** A booking reaches its planned end; index = the booking's
     *  generation on the resource (stale once it was suspended). */
    kBookingEnd,
};

} // namespace

TransactionScheduler::TransactionScheduler(
    const flash::FlashGeometry &geometry, const flash::FlashTiming &timing,
    const SchedConfig &cfg)
    : geo_(geometry), timing_(timing), cfg_(cfg), policy_(makePolicy(cfg)),
      submitted_("sched.tx.submitted"),
      completedCount_("sched.tx.completed"),
      suspendCount_("sched.suspends"), maxQueueDepth_("sched.queue.max_depth")
{
    latencyHist_.reserve(kNumTxClasses);
    for (int c = 0; c < kNumTxClasses; ++c) {
        latencyHist_.emplace_back(
            std::string("sched.latency_us.") +
                txClassName(static_cast<TxClass>(c)),
            0.0, 10000.0, 100);
    }
    lanes_.resize(static_cast<std::size_t>(geo_.channels) +
                  geo_.planesTotal());
    if (policy_)
    {
        queues_.resize(lanes_.size());
    }
}

std::string
TransactionScheduler::resourceName(std::size_t res) const
{
    return res < geo_.channels
               ? "channel " + std::to_string(res)
               : "die " + std::to_string(res - geo_.channels);
}

std::string
TransactionScheduler::dieTrackName(std::uint32_t plane_ordinal) const
{
    // The plane's full physical coordinate, in arrayResource() order.
    const flash::PlaneCoord c = flash::planeCoord(geo_, plane_ordinal);
    return "ch" + std::to_string(c.channel) + " chip" +
           std::to_string(c.chip) + " die" + std::to_string(c.die) +
           " plane" + std::to_string(c.plane);
}

void
TransactionScheduler::setTraceSink(obs::TraceSink *sink)
{
    sink_ = sink;
    observed_ = sink_ != nullptr || curCmd_.has_value();
    resourceTracks_.clear();
    if (!sink_)
    {
        return;
    }
    resourceTracks_.reserve(lanes_.size());
    for (std::uint32_t c = 0; c < geo_.channels; ++c)
    {
        resourceTracks_.push_back(
            sink_->track("channels", "channel " + std::to_string(c)));
    }
    for (std::uint32_t p = 0; p < geo_.planesTotal(); ++p)
    {
        resourceTracks_.push_back(sink_->track("dies", dieTrackName(p)));
    }
}

void
TransactionScheduler::noteSpan(std::size_t res, std::uint64_t id, TxClass cls,
                               const std::optional<std::uint64_t> &cmd,
                               StageTicks &st, PhaseKind kind, Tick start,
                               Tick end)
{
    st.phase[static_cast<std::size_t>(kind)] += end - start;
    if (sink_ != nullptr)
    {
        // Building the argument strings is trace emission too.
        PROFILE_SCOPE(obs::Subsystem::kObs);
        sink_->span(resourceTracks_[res], phaseKindName(kind), start, end,
                    {{"tx", std::to_string(id), false},
                     {"class", txClassName(cls), true}});
        if (cmd)
        {
            // The step lands exactly on the span's start ts, which is
            // what binds the command's flow to this span in Perfetto
            // (and what the flow-linkage check verifies).
            sink_->flowStep(resourceTracks_[res], obs::kNvmeFlowCat,
                            obs::kNvmeFlowName, *cmd, start);
        }
    }
}

void
TransactionScheduler::noteSpan(std::size_t res, std::size_t txIdx,
                               PhaseKind kind, Tick start, Tick end)
{
    EventTx &et = eventTxs_[txIdx];
    noteSpan(res, firstId_ + txIdx, outcomes_[txIdx].cls, et.cmd, et.stages,
             kind, start, end);
}

TransactionScheduler::Phases
TransactionScheduler::buildPhases(const DeviceTransaction &tx) const
{
    const auto ch = tx.addr.channel;
    const auto die = static_cast<std::uint32_t>(arrayResource(tx.addr));
    Phases ph;
    const auto add = [&ph](PhaseKind kind, std::uint32_t res, Tick ticks) {
        ph.at[ph.n++] = Phase{res, 0, kind, ticks};
    };
    // Canonical phase order across every class: xfer-in, array,
    // xfer-out (zero-duration phases are elided).  Reads have no
    // xfer-in, programs/erases no xfer-out, so this reproduces the
    // class-specific legacy reserve() sequences exactly.
    if (tx.xferInTicks > 0)
    {
        add(PhaseKind::kXferIn, ch, tx.xferInTicks);
    }
    if (tx.arrayTicks > 0)
    {
        add(PhaseKind::kArray, die, tx.arrayTicks);
    }
    if (tx.xferOutTicks > 0)
    {
        add(PhaseKind::kXferOut, ch, tx.xferOutTicks);
    }
    return ph;
}

void
TransactionScheduler::observe(std::size_t txIdx, TxClass cls, Tick earliest,
                              const std::array<Booked, 3> &phases)
{
    StageTicks st;
    Tick ready = earliest;
    for (const Booked &b : phases)
    {
        if (b.ticks == 0)
        {
            continue;
        }
        st.queueWait += b.start - ready;
        ready = b.start + b.ticks;
        noteSpan(b.res, firstId_ + txIdx, cls, curCmd_, st, b.kind, b.start,
                 ready);
    }
    if (curCmd_)
    {
        foldStages(*curCmd_, st);
    }
}

void
TransactionScheduler::foldStages(std::uint64_t cmd, const StageTicks &st)
{
    StageTicks &agg = cmdStages_[cmd];
    agg.add(st);
    ++agg.txCount;
}

void
TransactionScheduler::enqueue(const DeviceTransaction &tx)
{
    const std::size_t txIdx = outcomes_.size();
    outcomes_.push_back(
        Outcome{tx.readyAt, 0, tx.arrayTicks, 0, 0, tx.cls, false});
    EventTx &et = eventTxs_.emplace_back();
    et.phases = buildPhases(tx);
    et.earliest = tx.readyAt + tx.cmdTicks;
    et.cmd = curCmd_;
    // A pure delay (all phase durations zero) has nothing to arbitrate
    // under any policy: it completes without touching a resource.
    if (et.phases.n == 0)
    {
        complete(txIdx, book(txIdx, tx));
        return;
    }
    for (std::uint8_t p = 0; p < et.phases.n; ++p)
    {
        Phase &f = et.phases.at[p];
        countEntry(lanes_[f.resource]);
        Queue &r = queues_[f.resource];
        // Between drains a queue holds no tombstones, so its size is
        // its live depth.
        f.slot = r.base + static_cast<std::uint32_t>(r.q.size());
        QueueEntry e;
        e.seq = firstId_ + txIdx;
        e.cls = tx.cls;
        e.txIdx = txIdx;
        e.phaseIdx = p;
        r.q.push_back(e);
    }
}

void
TransactionScheduler::complete(std::size_t txIdx, Tick end)
{
    Outcome &o = outcomes_[txIdx];
    o.done = true;
    o.complete = end;
    noteCompletion(o.cls, o.readyAt, end);
    ++completedCount_;
}

Tick
TransactionScheduler::runEvents()
{
    PROFILE_SCOPE(obs::Subsystem::kSched);

    eng_.reset();
    for (std::size_t i = 0; i < eventTxs_.size(); ++i)
    {
        if (!outcomes_[i].done)
        {
            const EventTx &et = eventTxs_[i];
            eng_.schedule(et.earliest, kFirstPhaseReady,
                          et.phases.at[0].resource, i);
        }
    }
    eng_.run([this](const EventEngine::Event &ev) { onEvent(ev); });

    for (std::size_t i = 0; i < eventTxs_.size(); ++i)
    {
        if (!outcomes_[i].done)
        {
            panic("TransactionScheduler::drain: arbitration stalled "
                  "(policy left a transaction unserved)");
        }
        // Only the resources this batch queued on can hold residue.
        const Phases &ph = eventTxs_[i].phases;
        for (std::uint8_t p = 0; p < ph.n; ++p)
        {
            const Queue &r = queues_[ph.at[p].resource];
            if (!r.q.empty() || r.busy)
            {
                panic("TransactionScheduler::drain: residual queue state");
            }
        }
    }
    return batchMax_;
}

void
TransactionScheduler::onEvent(const EventEngine::Event &ev)
{
    switch (static_cast<EventKind>(ev.kind))
    {
    case kFirstPhaseReady:
        markReady(ev.index, 0, ev.when);
        return;
    case kBookingEnd:
        onComplete(ev.resource, ev.index);
        return;
    }
    panic("TransactionScheduler: unknown event kind");
}

void
TransactionScheduler::markReady(std::size_t txIdx, std::size_t phaseIdx,
                                Tick earliest)
{
    const Phase &ph = eventTxs_[txIdx].phases.at[phaseIdx];
    Queue &r = queues_[ph.resource];
    // The slot handle indexes the queue; the entry must still be the
    // phase's own, unstarted one.
    const std::size_t at = ph.slot - r.base;
    if (ph.slot < r.base || at >= r.q.size() || r.q[at].txIdx != txIdx ||
        r.q[at].phaseIdx != phaseIdx || r.q[at].isResume ||
        r.q[at].started)
    {
        panic("TransactionScheduler::markReady: phase entry not queued");
    }
    QueueEntry &e = r.q[at];
    e.ready = true;
    e.earliest = earliest;
    dispatch(ph.resource);
}

void
TransactionScheduler::dispatch(std::size_t res)
{
    Queue &r = queues_[res];
    if (r.busy)
    {
        maybeSuspend(res);
        return;
    }
    if (r.q.empty())
    {
        return;
    }
    const std::size_t pick = policy_->pick(r.q, eng_.now());
    if (pick == kNoPick)
    {
        return;
    }
    if (pick >= r.q.size() || !r.q[pick].ready)
    {
        panic("TransactionScheduler::dispatch: policy picked an entry "
              "that cannot start");
    }
    startEntry(res, pick);
}

void
TransactionScheduler::startEntry(std::size_t res, std::size_t qIdx)
{
    Queue &r = queues_[res];
    const QueueEntry e = r.q[qIdx];
    // Leave a tombstone so the entries behind keep their slots; pop the
    // tombstones that reach the front.
    r.q[qIdx].ready = false;
    r.q[qIdx].started = true;
    while (!r.q.empty() && r.q.front().started)
    {
        r.q.pop_front();
        ++r.base;
    }
    if (r.q.empty())
    {
        r.base = 0; // no live handle points into an empty queue
    }

    EventTx &et = eventTxs_[e.txIdx];
    const Tick payload =
        e.isResume ? e.resumeRemaining : et.phases.at[e.phaseIdx].ticks;
    const Tick overhead = e.isResume ? timing_.tResume : 0;

    Running run;
    run.txIdx = e.txIdx;
    run.phaseIdx = e.phaseIdx;
    run.gen = ++r.gen;
    // Logical booking start: never the engine clock — resource free
    // times persist across drains while the engine restarts at zero.
    run.start = std::max(e.earliest, lanes_[res].tl.nextFree());
    run.payloadStart = run.start + overhead;
    run.plannedEnd = run.payloadStart + payload;
    run.isResume = e.isResume;
    // Queue wait: how long the phase sat ready but unserved (resource
    // contention / arbitration), as opposed to booked work time.
    et.stages.queueWait += run.start - e.earliest;
    r.busy = true;
    r.running = run;

    eng_.schedule(run.plannedEnd, kBookingEnd,
                  static_cast<std::uint32_t>(res), run.gen);
}

void
TransactionScheduler::onComplete(std::size_t res, std::uint64_t gen)
{
    Queue &r = queues_[res];
    if (!r.busy || r.running.gen != gen)
    {
        return; // stale: the booking was suspended
    }
    const Running run = r.running;
    r.busy = false;

    EventTx &et = eventTxs_[run.txIdx];
    const Phase &ph = et.phases.at[run.phaseIdx];
    // run.start was computed from the resource's nextFree when it went
    // busy, so any other start means this booking overlaps another.
    const Tick booked =
        lanes_[res].tl.reserve(run.start, run.plannedEnd - run.start);
    PARABIT_CHECK(booked == run.start,
                  "TransactionScheduler: a completed booking overlaps its "
                  "resource's previous booking");

    if (run.isResume)
    {
        noteSpan(res, run.txIdx, PhaseKind::kResume, run.start,
                 run.payloadStart);
    }
    noteSpan(res, run.txIdx, ph.kind, run.payloadStart, run.plannedEnd);
    if (ph.kind == PhaseKind::kArray)
    {
        outcomes_[run.txIdx].arrayExecuted +=
            run.plannedEnd - run.payloadStart;
    }

    const std::size_t next = run.phaseIdx + 1;
    if (next < et.phases.n)
    {
        markReady(run.txIdx, next, run.plannedEnd);
    }
    else
    {
        complete(run.txIdx, run.plannedEnd);
        if (et.cmd)
        {
            foldStages(*et.cmd, et.stages);
        }
    }
    dispatch(res);
}

void
TransactionScheduler::maybeSuspend(std::size_t res)
{
    Queue &r = queues_[res];
    const Running run = r.running;
    EventTx &et = eventTxs_[run.txIdx];
    Outcome &o = outcomes_[run.txIdx];
    const Phase &ph = et.phases.at[run.phaseIdx];
    const Tick now = eng_.now();

    if (ph.kind != PhaseKind::kArray || !suspendable(o.cls))
    {
        return;
    }
    if (static_cast<int>(o.suspends) >= cfg_.maxSuspendsPerOp)
    {
        return;
    }
    // The transition windows (tResume restore, or a booking whose start
    // is still in the future) cannot be interrupted, and a phase at its
    // planned end has nothing left to suspend.
    if (now < run.payloadStart || now >= run.plannedEnd)
    {
        return;
    }
    bool wanted = false;
    for (const QueueEntry &e : r.q)
    {
        if (e.ready && policy_->preempts(e.cls, o.cls))
        {
            wanted = true;
            break;
        }
    }
    if (!wanted)
    {
        return;
    }

    // Suspend: book the executed segment plus the suspend transition,
    // park the remainder as a resume entry.
    const Tick executed = now - run.payloadStart;
    const Tick remaining = run.plannedEnd - now;
    const Tick booked = lanes_[res].tl.reserve(
        run.start, (now - run.start) + timing_.tSuspend);
    PARABIT_CHECK(booked == run.start,
                  "TransactionScheduler: a suspended booking overlaps its "
                  "resource's previous booking");
    o.arrayExecuted += executed;
    if (o.suspends == 0)
    {
        et.forceAt = now + cfg_.maxSuspendedTicks;
    }
    ++o.suspends;
    ++suspendCount_;

    if (run.isResume)
    {
        noteSpan(res, run.txIdx, PhaseKind::kResume, run.start,
                 run.payloadStart);
    }
    if (executed > 0)
    {
        noteSpan(res, run.txIdx, PhaseKind::kArray, run.payloadStart, now);
    }
    noteSpan(res, run.txIdx, PhaseKind::kSuspend, now,
             now + timing_.tSuspend);

    QueueEntry e;
    e.seq = firstId_ + run.txIdx;
    e.cls = o.cls;
    e.txIdx = run.txIdx;
    e.phaseIdx = run.phaseIdx;
    e.ready = true;
    e.earliest = now + timing_.tSuspend;
    e.isResume = true;
    e.resumeRemaining = remaining;
    e.forceAt = et.forceAt;
    r.busy = false;
    r.q.push_back(e);

    dispatch(res);
}

StageTicks
TransactionScheduler::takeCommandStages(std::uint64_t token)
{
    const auto it = cmdStages_.find(token);
    if (it == cmdStages_.end())
    {
        return StageTicks{};
    }
    StageTicks out = it->second;
    cmdStages_.erase(it);
    return out;
}

Tick
TransactionScheduler::completionOf(std::uint64_t id) const
{
    // A batch's ids are contiguous, so the id indexes outcomes_ (an id
    // below the batch wraps past its end).  An FCFS transaction is done
    // at submit, but its batch is not drained yet.
    const std::uint64_t at = id - firstId_;
    if (batchOpen_ || at >= outcomes_.size() || !outcomes_[at].done)
    {
        panic("TransactionScheduler::completionOf: unknown transaction "
              "(batch already discarded? drain before querying)");
    }
    return outcomes_[at].complete;
}

Tick
TransactionScheduler::latestCompletion(TxGroup g) const
{
    Tick done = 0;
    for (std::uint64_t id = g.lo; id < g.hi; ++id)
    {
        done = std::max(done, completionOf(id));
    }
    return done;
}

SchedStats
TransactionScheduler::stats() const
{
    SchedStats s;
    s.channelBusy.reserve(geo_.channels);
    for (std::uint32_t c = 0; c < geo_.channels; ++c)
    {
        s.channelBusy.push_back(lanes_[c].tl.bookedTicks());
    }
    s.dieBusy.reserve(geo_.planesTotal());
    for (std::uint32_t p = 0; p < geo_.planesTotal(); ++p)
    {
        s.dieBusy.push_back(lanes_[geo_.channels + p].tl.bookedTicks());
    }
    s.submitted = submitted_.value();
    s.completed = completedCount_.value();
    s.suspends = suspendCount_.value();
    // An open batch's depth reaches the gauge when it drains.
    s.maxQueueDepth = std::max(
        static_cast<std::size_t>(maxQueueDepth_.value()),
        static_cast<std::size_t>(batchDepth_));
    return s;
}

std::vector<TxRecord>
TransactionScheduler::records() const
{
    std::vector<TxRecord> out;
    out.reserve(outcomes_.size());
    for (std::size_t i = 0; i < outcomes_.size(); ++i)
    {
        const Outcome &o = outcomes_[i];
        TxRecord rec;
        rec.id = firstId_ + i;
        rec.cls = o.cls;
        rec.readyAt = o.readyAt;
        rec.complete = o.complete;
        rec.arrayTicks = o.arrayTicks;
        rec.arrayExecuted = o.arrayExecuted;
        rec.suspends = static_cast<int>(o.suspends);
        out.push_back(rec);
    }
    return out;
}

void
TransactionScheduler::auditInvariants(InvariantReport &r) const
{
    // sched.queue.drained: a drain boundary leaves no residual work
    // (FCFS has no queue to leave it in).
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        const std::size_t queued = queues_.empty() ? 0 : queues_[i].q.size();
        if (!r.check(queued == 0))
            r.fail("sched.queue.drained", resourceName(i),
                   std::to_string(queued) +
                       " queue entries survived the drain");
        if (!r.check(queues_.empty() || !queues_[i].busy))
            r.fail("sched.queue.drained", resourceName(i),
                   "a booking is still marked running after the drain");
    }

    // sched.queue.accounting: lifetime submit/complete balance (each
    // transaction of the last batch finishing is sched.work.conservation).
    if (!r.check(submitted_.value() == completedCount_.value()))
        r.fail("sched.queue.accounting", "lifetime counters",
               "submitted " + std::to_string(submitted_.value()) +
                   " != completed " +
                   std::to_string(completedCount_.value()));

    // sched.work.conservation: suspend-resume never loses or invents
    // array work, and nothing completes before it was ready.
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        const Outcome &o = outcomes_[i];
        const auto subj = [&] { return "tx " + std::to_string(firstId_ + i); };
        if (!r.check(o.done))
            r.fail("sched.work.conservation", subj(),
                   "transaction never finished");
        if (!r.check(o.arrayExecuted == o.arrayTicks))
            r.fail("sched.work.conservation", subj(),
                   "planned " + std::to_string(o.arrayTicks) +
                       " array ticks, executed " +
                       std::to_string(o.arrayExecuted) + " across " +
                       std::to_string(o.suspends) + " suspends");
        if (!r.check(o.complete >= o.readyAt))
            r.fail("sched.work.conservation", subj(),
                   "completed at " + std::to_string(o.complete) +
                       " before ready time " + std::to_string(o.readyAt));
    }
}

} // namespace parabit::ssd::sched
