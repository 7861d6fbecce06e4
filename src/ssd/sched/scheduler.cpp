#include "ssd/sched/scheduler.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace parabit::ssd::sched {

TransactionScheduler::TransactionScheduler(
    const flash::FlashGeometry &geometry, const flash::FlashTiming &timing,
    const SchedConfig &cfg)
    : geo_(geometry), timing_(timing), cfg_(cfg), policy_(makePolicy(cfg)),
      submitted_("sched.tx.submitted"),
      completedCount_("sched.tx.completed"),
      suspendCount_("sched.suspends"), batches_("sched.batch.groups"),
      batchedJobs_("sched.batch.jobs"),
      maxQueueDepth_("sched.queue.max_depth")
{
    latencyHist_.reserve(kNumTxClasses);
    for (int c = 0; c < kNumTxClasses; ++c) {
        latencyHist_.emplace_back(
            std::string("sched.latency_us.") +
                txClassName(static_cast<TxClass>(c)),
            0.0, 10000.0, 100);
    }
    resources_.resize(static_cast<std::size_t>(geo_.channels) +
                      geo_.planesTotal());
    for (std::uint32_t c = 0; c < geo_.channels; ++c)
    {
        resources_[c].onChannel = true;
        resources_[c].index = c;
    }
    for (std::uint32_t p = 0; p < geo_.planesTotal(); ++p)
    {
        Resource &r = resources_[geo_.channels + p];
        r.onChannel = false;
        r.index = p;
    }
}

std::size_t
TransactionScheduler::channelResource(std::uint32_t channel) const
{
    return channel;
}

std::string
TransactionScheduler::dieTrackName(std::uint32_t plane_ordinal) const
{
    // Inverse of the arrayResource() linearisation, so the track name
    // carries the full physical coordinate of the plane.
    const std::uint32_t plane = plane_ordinal % geo_.planesPerDie;
    std::uint32_t rest = plane_ordinal / geo_.planesPerDie;
    const std::uint32_t die = rest % geo_.diesPerChip;
    rest /= geo_.diesPerChip;
    const std::uint32_t chip = rest % geo_.chipsPerChannel;
    const std::uint32_t channel = rest / geo_.chipsPerChannel;
    return "ch" + std::to_string(channel) + " chip" +
           std::to_string(chip) + " die" + std::to_string(die) + " plane" +
           std::to_string(plane);
}

void
TransactionScheduler::setTraceSink(obs::TraceSink *sink)
{
    sink_ = sink;
    resourceTracks_.clear();
    if (!sink_)
    {
        return;
    }
    resourceTracks_.reserve(resources_.size());
    for (const Resource &r : resources_)
    {
        if (r.onChannel)
        {
            resourceTracks_.push_back(sink_->track(
                "channels", "channel " + std::to_string(r.index)));
        }
        else
        {
            resourceTracks_.push_back(
                sink_->track("dies", dieTrackName(r.index)));
        }
    }
}

void
TransactionScheduler::noteSpan(std::size_t res, TxState &st,
                               PhaseKind kind, Tick start, Tick end)
{
    st.stages.phase[static_cast<std::size_t>(kind)] += end - start;
    if (sink_ != nullptr)
    {
        sink_->span(resourceTracks_[res], phaseKindName(kind), start, end,
                    {{"tx", std::to_string(st.id), false},
                     {"class", txClassName(st.tx.cls), true}});
        const auto it = cmdOf_.find(st.id);
        if (it != cmdOf_.end())
        {
            // The step lands exactly on the span's start ts, which is
            // what binds the command's flow to this span in Perfetto
            // (and what the flow-linkage check verifies).
            sink_->flowStep(resourceTracks_[res], obs::kNvmeFlowCat,
                            obs::kNvmeFlowName, it->second, start);
        }
    }
}

std::size_t
TransactionScheduler::arrayResource(const flash::PhysPageAddr &a) const
{
    // Same linearisation as the legacy per-plane Timelines.
    const std::size_t idx =
        ((static_cast<std::size_t>(a.channel) * geo_.chipsPerChannel +
          a.chip) *
             geo_.diesPerChip +
         a.die) *
            geo_.planesPerDie +
        a.plane;
    return static_cast<std::size_t>(geo_.channels) + idx;
}

void
TransactionScheduler::buildPhases(TxState &st) const
{
    const DeviceTransaction &tx = st.tx;
    const std::size_t ch = channelResource(tx.addr.channel);
    const std::size_t die = arrayResource(tx.addr);
    // Canonical phase order across every class: xfer-in, array,
    // xfer-out (zero-duration phases are elided).  Reads have no
    // xfer-in, programs/erases no xfer-out, so this reproduces the
    // class-specific legacy reserve() sequences exactly.
    if (tx.xferInTicks > 0)
    {
        st.phases.push_back({PhaseKind::kXferIn, ch, tx.xferInTicks});
    }
    if (tx.arrayTicks > 0)
    {
        st.phases.push_back({PhaseKind::kArray, die, tx.arrayTicks});
    }
    if (tx.xferOutTicks > 0)
    {
        st.phases.push_back({PhaseKind::kXferOut, ch, tx.xferOutTicks});
    }
}

Tick
TransactionScheduler::firstEarliest(const TxState &st) const
{
    // The command overhead is a die-side delay; batch followers add
    // their leader-alignment delay.
    return st.tx.readyAt + st.tx.extraDelay + st.tx.cmdTicks;
}

std::uint64_t
TransactionScheduler::submit(const DeviceTransaction &tx)
{
    if (!batchOpen_)
    {
        // First submit after a drain: discard the previous batch's
        // records and completion map (callers must have flushed any
        // group queries by now) so memory stays bounded.
        txs_.clear();
        completions_.clear();
        // Command tags refer to batch-local tx ids; stage aggregates in
        // cmdStages_ survive (a formula command spans several drains).
        cmdOf_.clear();
        batchOpen_ = true;
    }
    TxState st;
    st.tx = tx;
    st.id = nextId_++;
    if (curCmd_)
    {
        cmdOf_[st.id] = *curCmd_;
    }
    buildPhases(st);
    ++submitted_;

    const std::size_t txIdx = txs_.size();
    txs_.push_back(std::move(st));
    TxState &added = txs_.back();
    if (added.phases.empty())
    {
        // Pure delay (all phase durations zero): completes without
        // touching any resource.
        finishTx(added, firstEarliest(added));
        return added.id;
    }
    for (std::size_t p = 0; p < added.phases.size(); ++p)
    {
        Resource &r = resources_[added.phases[p].resource];
        QueueEntry e;
        e.seq = added.id;
        e.cls = added.tx.cls;
        e.txIdx = txIdx;
        e.phaseIdx = p;
        r.q.push_back(e);
        maxQueueDepth_.noteMax(static_cast<double>(r.q.size()));
    }
    return added.id;
}

Tick
TransactionScheduler::drain()
{
    PROFILE_SCOPE(obs::Subsystem::kSched);
    batchOpen_ = false;
    bool anyPending = false;
    for (const TxState &st : txs_)
    {
        if (!st.done)
        {
            anyPending = true;
            break;
        }
    }
    Tick batchMax = 0;
    for (const TxState &st : txs_)
    {
        if (st.done)
        {
            batchMax = std::max(batchMax, st.complete);
        }
    }
    if (!anyPending)
    {
        return batchMax;
    }

    EventEngine eng;
    eng_ = &eng;
    for (std::size_t i = 0; i < txs_.size(); ++i)
    {
        TxState &st = txs_[i];
        if (st.done || st.phases.empty())
        {
            continue;
        }
        const std::size_t res = st.phases[0].resource;
        const Tick earliest = firstEarliest(st);
        eng.schedule(earliest,
                     [this, res, i, earliest] { markReady(res, i, 0, earliest); });
    }
    eng.run();
    eng_ = nullptr;

    for (const TxState &st : txs_)
    {
        if (!st.done)
        {
            panic("TransactionScheduler::drain: arbitration stalled "
                  "(policy left a transaction unserved)");
        }
        batchMax = std::max(batchMax, st.complete);
    }
    for (Resource &r : resources_)
    {
        if (!r.q.empty() || r.busy)
        {
            panic("TransactionScheduler::drain: residual queue state");
        }
    }
    return batchMax;
}

void
TransactionScheduler::markReady(std::size_t res, std::size_t txIdx,
                                std::size_t phaseIdx, Tick earliest)
{
    Resource &r = resources_[res];
    for (QueueEntry &e : r.q)
    {
        if (e.txIdx == txIdx && e.phaseIdx == phaseIdx && !e.isResume)
        {
            e.ready = true;
            e.earliest = earliest;
            dispatch(res);
            return;
        }
    }
    panic("TransactionScheduler::markReady: phase entry not queued");
}

void
TransactionScheduler::dispatch(std::size_t res)
{
    Resource &r = resources_[res];
    if (r.busy)
    {
        maybeSuspend(res);
        return;
    }
    if (r.q.empty())
    {
        return;
    }
    const std::size_t pick = policy_->pick(r.q, eng_->now());
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
    Resource &r = resources_[res];
    const QueueEntry e = r.q[qIdx];
    r.q.erase(r.q.begin() + static_cast<std::ptrdiff_t>(qIdx));

    const TxState &st = txs_[e.txIdx];
    const Tick payload =
        e.isResume ? e.resumeRemaining : st.phases[e.phaseIdx].duration;
    const Tick overhead = e.isResume ? timing_.tResume : 0;

    Running run;
    run.txIdx = e.txIdx;
    run.phaseIdx = e.phaseIdx;
    run.gen = ++r.gen;
    // Logical booking start: never the engine clock — resource free
    // times persist across drains while the engine restarts at zero.
    run.start = std::max(e.earliest, r.tl.nextFree());
    run.payloadStart = run.start + overhead;
    run.plannedEnd = run.payloadStart + payload;
    run.isResume = e.isResume;
    // Queue wait: how long the phase sat ready but unserved (resource
    // contention / arbitration), as opposed to booked work time.
    txs_[e.txIdx].stages.queueWait += run.start - e.earliest;
    r.busy = true;
    r.running = run;

    const std::uint64_t gen = run.gen;
    eng_->schedule(run.plannedEnd, [this, res, gen] { onComplete(res, gen); });
}

void
TransactionScheduler::onComplete(std::size_t res, std::uint64_t gen)
{
    Resource &r = resources_[res];
    if (!r.busy || r.running.gen != gen)
    {
        return; // stale: the booking was suspended
    }
    const Running run = r.running;
    r.busy = false;

    TxState &st = txs_[run.txIdx];
    const Phase &ph = st.phases[run.phaseIdx];
    // run.start was computed from the resource's nextFree when it went
    // busy, so any other start means this booking overlaps another.
    const Tick booked = r.tl.reserve(run.start, run.plannedEnd - run.start);
    PARABIT_CHECK(booked == run.start,
                  "TransactionScheduler: a completed booking overlaps its "
                  "resource's previous booking");

    if (run.isResume)
    {
        noteSpan(res, st, PhaseKind::kResume, run.start, run.payloadStart);
    }
    noteSpan(res, st, ph.kind, run.payloadStart, run.plannedEnd);
    if (ph.kind == PhaseKind::kArray)
    {
        st.arrayExecuted += run.plannedEnd - run.payloadStart;
    }

    st.nextPhase = run.phaseIdx + 1;
    if (st.nextPhase < st.phases.size())
    {
        const std::size_t nextRes = st.phases[st.nextPhase].resource;
        markReady(nextRes, run.txIdx, st.nextPhase, run.plannedEnd);
    }
    else
    {
        finishTx(st, run.plannedEnd);
    }
    dispatch(res);
}

void
TransactionScheduler::maybeSuspend(std::size_t res)
{
    Resource &r = resources_[res];
    const Running run = r.running;
    TxState &st = txs_[run.txIdx];
    const Phase &ph = st.phases[run.phaseIdx];
    const Tick now = eng_->now();

    if (ph.kind != PhaseKind::kArray || !st.tx.suspendable())
    {
        return;
    }
    if (st.suspends >= cfg_.maxSuspendsPerOp)
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
        if (e.ready && policy_->preempts(e.cls, st.tx.cls))
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
    const Tick booked =
        r.tl.reserve(run.start, (now - run.start) + timing_.tSuspend);
    PARABIT_CHECK(booked == run.start,
                  "TransactionScheduler: a suspended booking overlaps its "
                  "resource's previous booking");
    st.arrayExecuted += executed;
    if (st.suspends == 0)
    {
        st.forceAt = now + cfg_.maxSuspendedTicks;
    }
    ++st.suspends;
    ++suspendCount_;

    if (run.isResume)
    {
        noteSpan(res, st, PhaseKind::kResume, run.start, run.payloadStart);
    }
    if (executed > 0)
    {
        noteSpan(res, st, PhaseKind::kArray, run.payloadStart, now);
    }
    noteSpan(res, st, PhaseKind::kSuspend, now, now + timing_.tSuspend);

    QueueEntry e;
    e.seq = st.id;
    e.cls = st.tx.cls;
    e.txIdx = run.txIdx;
    e.phaseIdx = run.phaseIdx;
    e.ready = true;
    e.earliest = now + timing_.tSuspend;
    e.isResume = true;
    e.resumeRemaining = remaining;
    e.forceAt = st.forceAt;
    r.busy = false;
    r.q.push_back(e);

    dispatch(res);
}

void
TransactionScheduler::finishTx(TxState &st, Tick end)
{
    st.done = true;
    st.complete = end;
    completions_[st.id] = end;
    ++completedCount_;
    const auto cmd = cmdOf_.find(st.id);
    if (cmd != cmdOf_.end())
    {
        StageTicks &agg = cmdStages_[cmd->second];
        agg.add(st.stages);
        ++agg.txCount;
    }
    const auto cls = static_cast<std::size_t>(st.tx.cls);
    // Tick is picoseconds; the registry histogram is bucketed in us.
    latencyHist_[cls].sample(static_cast<double>(end - st.tx.readyAt) /
                             1e6);
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
    auto it = completions_.find(id);
    if (it == completions_.end())
    {
        panic("TransactionScheduler::completionOf: unknown transaction "
              "(batch already discarded? drain before querying)");
    }
    return it->second;
}

Tick
TransactionScheduler::groupCompletion(const TxGroup &g, Tick fallback) const
{
    if (g.empty())
    {
        return fallback;
    }
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
        s.channelBusy.push_back(resources_[c].tl.bookedTicks());
    }
    s.dieBusy.reserve(geo_.planesTotal());
    for (std::uint32_t p = 0; p < geo_.planesTotal(); ++p)
    {
        s.dieBusy.push_back(resources_[geo_.channels + p].tl.bookedTicks());
    }
    s.submitted = submitted_.value();
    s.completed = completedCount_.value();
    s.suspends = suspendCount_.value();
    s.batches = batches_.value();
    s.batchedJobs = batchedJobs_.value();
    s.maxQueueDepth = static_cast<std::size_t>(maxQueueDepth_.value());
    return s;
}

std::vector<TxRecord>
TransactionScheduler::records() const
{
    std::vector<TxRecord> out;
    out.reserve(txs_.size());
    for (const TxState &st : txs_)
    {
        TxRecord rec;
        rec.id = st.id;
        rec.cls = st.tx.cls;
        rec.readyAt = st.tx.readyAt;
        rec.complete = st.complete;
        rec.arrayTicks = st.tx.arrayTicks;
        rec.arrayExecuted = st.arrayExecuted;
        rec.suspends = st.suspends;
        out.push_back(rec);
    }
    return out;
}

void
TransactionScheduler::auditInvariants(InvariantReport &r) const
{
    // sched.queue.drained: a drain boundary leaves no residual work.
    for (std::size_t i = 0; i < resources_.size(); ++i) {
        const Resource &res = resources_[i];
        const std::string subj =
            std::string(res.onChannel ? "channel " : "die ") +
            std::to_string(res.index);
        if (!r.check(res.q.empty()))
            r.fail("sched.queue.drained", subj,
                   std::to_string(res.q.size()) +
                       " queue entries survived the drain");
        if (!r.check(!res.busy))
            r.fail("sched.queue.drained", subj,
                   "a booking is still marked running after the drain");
    }

    // sched.queue.accounting: lifetime submit/complete balance plus
    // full completion coverage of the last batch.
    if (!r.check(submitted_.value() == completedCount_.value()))
        r.fail("sched.queue.accounting", "lifetime counters",
               "submitted " + std::to_string(submitted_.value()) +
                   " != completed " +
                   std::to_string(completedCount_.value()));
    if (!r.check(completions_.size() == txs_.size()))
        r.fail("sched.queue.accounting", "last batch",
               std::to_string(txs_.size()) + " transactions but " +
                   std::to_string(completions_.size()) +
                   " completion entries");

    // sched.work.conservation: suspend-resume never loses or invents
    // array work, and nothing completes before it was ready.
    for (const TxState &st : txs_) {
        const std::string subj = "tx " + std::to_string(st.id);
        if (!r.check(st.done))
            r.fail("sched.work.conservation", subj,
                   "transaction never finished");
        if (!r.check(st.arrayExecuted == st.tx.arrayTicks))
            r.fail("sched.work.conservation", subj,
                   "planned " + std::to_string(st.tx.arrayTicks) +
                       " array ticks, executed " +
                       std::to_string(st.arrayExecuted) +
                       " across " + std::to_string(st.suspends) +
                       " suspends");
        if (!r.check(st.complete >= st.tx.readyAt))
            r.fail("sched.work.conservation", subj,
                   "completed at " + std::to_string(st.complete) +
                       " before ready time " +
                       std::to_string(st.tx.readyAt));
    }
}

} // namespace parabit::ssd::sched
