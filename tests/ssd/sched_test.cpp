/**
 * @file
 * Transaction-scheduler behaviour: policy semantics (FCFS head-of-line
 * vs out-of-order independence vs read priority), suspend-resume
 * arithmetic and its bounds, batch bookkeeping edges, and the two
 * booking paths: FCFS books in closed form without the event engine,
 * and the event path books the same ticks whenever nothing can overtake.
 *
 * Durations are hand-picked round numbers set directly on the
 * DeviceTransaction, so every expected tick below is derivable by eye.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ssd/config.hpp"
#include "ssd/event_engine.hpp"
#include "ssd/sched/scheduler.hpp"
#include "trace_check.hpp"

namespace parabit::ssd::sched {
namespace {

flash::PhysPageAddr
planeAddr(std::uint32_t channel, std::uint32_t chip, std::uint32_t plane)
{
    flash::PhysPageAddr a;
    a.channel = channel;
    a.chip = chip;
    a.plane = plane;
    return a;
}

DeviceTransaction
readTx(const flash::PhysPageAddr &a, Tick ready, Tick array, Tick xferOut)
{
    DeviceTransaction tx;
    tx.cls = TxClass::kRead;
    tx.addr = a;
    tx.readyAt = ready;
    tx.arrayTicks = array;
    tx.xferOutTicks = xferOut;
    return tx;
}

DeviceTransaction
programTx(const flash::PhysPageAddr &a, Tick ready, Tick array)
{
    DeviceTransaction tx;
    tx.cls = TxClass::kProgram;
    tx.addr = a;
    tx.readyAt = ready;
    tx.arrayTicks = array;
    return tx;
}

/** Timing with easy suspend/resume arithmetic. */
flash::FlashTiming
testTiming()
{
    flash::FlashTiming t;
    t.tSuspend = 7;
    t.tResume = 9;
    return t;
}

TEST(SchedPolicy, FcfsWaitsForHeadOfLine)
{
    SchedConfig cfg; // FCFS
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // tx0 (submitted first) is not ready until 100; its channel
    // transfer heads the channel queue, so tx1's earlier transfer must
    // wait behind it under FCFS.
    const auto id0 = s.submit(readTx(planeAddr(0, 0, 0), 100, 50, 30));
    const auto id1 = s.submit(readTx(planeAddr(0, 1, 0), 0, 10, 30));
    s.drain();
    EXPECT_EQ(s.completionOf(id0), 180u); // array 100-150, xfer 150-180
    // Array done at 10, but the channel head (tx0) books 150-180 first.
    EXPECT_EQ(s.completionOf(id1), 210u);
}

TEST(SchedPolicy, OutOfOrderProceedsPastBlockedHead)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kOutOfOrderDieFirst;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto id0 = s.submit(readTx(planeAddr(0, 0, 0), 100, 50, 30));
    const auto id1 = s.submit(readTx(planeAddr(0, 1, 0), 0, 10, 30));
    s.drain();
    // tx1's transfer no longer waits for the not-yet-ready head.
    EXPECT_EQ(s.completionOf(id1), 40u); // array 0-10, xfer 10-40
    EXPECT_EQ(s.completionOf(id0), 180u);
}

TEST(SchedPolicy, OutOfOrderStartsFromTheMiddleOfAQueue)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kOutOfOrderDieFirst;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // Four reads on four planes of channel 0; their transfers queue on
    // the channel in submission order.  tx0's transfer heads the queue
    // but is not ready before 150.
    const auto id0 = s.submit(readTx(planeAddr(0, 0, 0), 100, 50, 30));
    const auto id1 = s.submit(readTx(planeAddr(0, 1, 0), 0, 10, 30));
    const auto id2 = s.submit(readTx(planeAddr(0, 0, 1), 0, 20, 30));
    const auto id3 = s.submit(readTx(planeAddr(0, 1, 1), 0, 300, 30));
    s.drain();
    // tx1's transfer starts at 10 from behind the blocked head.  tx2's
    // becomes ready at 20 with tx1's started entry still ahead of it
    // and runs once the channel frees (40-70).
    EXPECT_EQ(s.completionOf(id1), 40u);
    EXPECT_EQ(s.completionOf(id2), 70u);
    // The head runs 150-180; tx3's transfer becomes ready at 300, after
    // every entry ahead of it has left the queue.
    EXPECT_EQ(s.completionOf(id0), 180u);
    EXPECT_EQ(s.completionOf(id3), 330u);
    EXPECT_EQ(s.stats().channelBusy.at(0), 120u);
    EXPECT_EQ(s.stats().maxQueueDepth, 4u);
}

TEST(SchedPolicy, OutOfOrderNeverSuspends)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kOutOfOrderDieFirst;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    s.drain();
    EXPECT_EQ(s.stats().suspends, 0u);
    EXPECT_EQ(s.completionOf(rd), 110u); // waits out the program
}

TEST(SchedReadPriority, SuspendResumeArithmetic)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto prog = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    s.drain();
    // Program runs 0-40, suspends (7): plane busy until 47.  Read runs
    // 47-57.  Resume overhead (9) 57-66, remainder 66-126.
    EXPECT_EQ(s.completionOf(rd), 57u);
    EXPECT_EQ(s.completionOf(prog), 126u);
    EXPECT_EQ(s.stats().suspends, 1u);

    // Suspend-resume conserves total array time.
    for (const TxRecord &r : s.records())
        EXPECT_EQ(r.arrayExecuted, r.arrayTicks) << "tx " << r.id;
    // Plane busy time: [0,47) + [47,57) + [57,126).
    EXPECT_EQ(s.stats().dieBusy.at(0), 126u);
}

TEST(SchedReadPriority, SuspendBudgetIsHonoured)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.maxSuspendsPerOp = 1;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto prog = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto r1 = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    const auto r2 = s.submit(readTx(planeAddr(0, 0, 0), 60, 10, 0));
    s.drain();
    EXPECT_EQ(s.completionOf(r1), 57u);
    // Budget spent: the second read cannot suspend the resumed
    // remainder (66-126) and waits it out.
    EXPECT_EQ(s.completionOf(prog), 126u);
    EXPECT_EQ(s.completionOf(r2), 136u);
    EXPECT_EQ(s.stats().suspends, 1u);
}

TEST(SchedReadPriority, ParkedDeadlineOutranksFurtherReads)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.maxSuspendedTicks = 20; // forceAt = first suspension + 20
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto prog = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto ra = s.submit(readTx(planeAddr(0, 0, 0), 10, 10, 0));
    const auto rb = s.submit(readTx(planeAddr(0, 0, 0), 12, 10, 0));
    const auto rc = s.submit(readTx(planeAddr(0, 0, 0), 12, 10, 0));
    s.drain();
    // Suspend at 10 (forceAt 30), read A 17-27.  At 27 the parked
    // remainder is not yet forced, so read B runs 27-37.  At 37 the
    // deadline has passed: the remainder resumes (37 + 9 resume + 90)
    // ahead of read C even though suspend budget remains.
    EXPECT_EQ(s.completionOf(ra), 27u);
    EXPECT_EQ(s.completionOf(rb), 37u);
    EXPECT_EQ(s.completionOf(prog), 136u);
    EXPECT_EQ(s.completionOf(rc), 146u);
    EXPECT_EQ(s.stats().suspends, 1u);
}

TEST(SchedReadPriority, ReducesReadLatencyUnderParaBitInterference)
{
    // The acceptance-criteria shape in miniature: a read arriving
    // behind a long co-plane program completes sooner under
    // read-priority than under FCFS.
    const auto runWith = [](SchedPolicyKind p) {
        SchedConfig cfg;
        cfg.policy = p;
        TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(),
                               cfg);
        s.submit(programTx(planeAddr(0, 0, 0), 0, 1000));
        const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 100, 25, 0));
        s.drain();
        return s.completionOf(rd) - 100; // read latency
    };
    const Tick fcfs = runWith(SchedPolicyKind::kFcfs);
    const Tick rp = runWith(SchedPolicyKind::kReadPriority);
    EXPECT_LT(rp, fcfs);
    EXPECT_EQ(rp, 32u);   // suspend at 100, read 107-132
    EXPECT_EQ(fcfs, 925u); // waits for the program to finish
}

TEST(SchedBookkeeping, GroupAndZeroPhaseEdges)
{
    SchedConfig cfg;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);

    // Empty group falls back.
    EXPECT_EQ(s.groupCompletion(TxGroup{}, 42), 42u);

    // A transaction with no nonzero phases completes at readyAt plus
    // its command delay without touching any resource.
    DeviceTransaction tx;
    tx.cls = TxClass::kParaBit;
    tx.addr = planeAddr(0, 0, 0);
    tx.readyAt = 10;
    tx.cmdTicks = 5;
    const auto id = s.submit(tx);
    s.drain();
    EXPECT_EQ(s.completionOf(id), 15u);
    const SchedStats st = s.stats();
    for (Tick b : st.dieBusy)
        EXPECT_EQ(b, 0u);
    EXPECT_EQ(st.submitted, 1u);
    EXPECT_EQ(st.completed, 1u);
}

TEST(SchedBookkeeping, CompletionOfOutsideTheDrainedBatchDies)
{
    SchedConfig cfg;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto old = s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    s.drain();
    EXPECT_EQ(s.completionOf(old), 10u);
    // The next submit discards the drained batch; the new transaction
    // queues behind the old booking on the same plane.
    const auto cur = s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    EXPECT_DEATH(s.completionOf(cur), "unknown transaction"); // undrained
    s.drain();
    EXPECT_EQ(s.completionOf(cur), 20u);
    EXPECT_DEATH(s.completionOf(old), "unknown transaction");
    EXPECT_DEATH(s.completionOf(cur + 1), "unknown transaction");
}

TEST(SchedBookkeeping, OutcomeRecordIsAtMost40Bytes)
{
    // Every policy keeps one per transaction of the batch, and one
    // paper-geometry placement is a batch of 524,288 transactions.
    EXPECT_LE(sizeof(TransactionScheduler::Outcome), 40u);
}

TEST(SchedBookkeeping, FcfsDrainRunsNoEngineEvent)
{
    const flash::FlashTiming t;
    // Every class and phase shape, two transactions sharing a plane and
    // one with no phase at all.
    std::vector<DeviceTransaction> batch = {
        readTx(planeAddr(0, 0, 0), 0, t.msbReadTime(), t.transferTime(64)),
        programTx(planeAddr(0, 0, 0), 5, t.tProgram),
        readTx(planeAddr(0, 1, 1), 0, t.lsbReadTime(), t.transferTime(64)),
    };
    batch[1].xferInTicks = t.transferTime(64);
    DeviceTransaction erase;
    erase.cls = TxClass::kErase;
    erase.addr = planeAddr(0, 1, 0);
    erase.arrayTicks = t.tErase;
    batch.push_back(erase);
    DeviceTransaction sense;
    sense.cls = TxClass::kParaBit;
    sense.addr = planeAddr(0, 1, 0);
    sense.cmdTicks = t.tCmdOverhead;
    sense.xferInTicks = t.transferTime(64);
    sense.arrayTicks = t.senseTime(3);
    sense.xferOutTicks = t.transferTime(64);
    batch.push_back(sense);
    DeviceTransaction delay;
    delay.cls = TxClass::kParaBit;
    delay.readyAt = 7;
    batch.push_back(delay);

    const auto eventsFor = [&](SchedPolicyKind p) {
        SchedConfig cfg;
        cfg.policy = p;
        TransactionScheduler s(flash::FlashGeometry::tiny(), t, cfg);
        const std::uint64_t before = EventEngine::processExecuted();
        for (const DeviceTransaction &tx : batch)
            s.submit(tx);
        EXPECT_GT(s.drain(), 0u);
        EXPECT_EQ(s.stats().completed, batch.size());
        return EventEngine::processExecuted() - before;
    };
    EXPECT_EQ(eventsFor(SchedPolicyKind::kFcfs), 0u);
    // The counter does see the same batch on the event path.
    EXPECT_GT(eventsFor(SchedPolicyKind::kOutOfOrderDieFirst), 0u);
}

TEST(SchedBookkeeping, ObservationChangesNoFcfsBooking)
{
    // One mixed FCFS batch booked twice: with neither attribution nor a
    // trace sink, and with both.  Observation must change no booking,
    // record, busy tick, queue depth or latency sample; only the
    // observed run carries spans and stage aggregates.
    const flash::FlashTiming t;
    std::vector<DeviceTransaction> batch = {
        readTx(planeAddr(0, 0, 0), 0, t.msbReadTime(), t.transferTime(64)),
        programTx(planeAddr(0, 0, 0), 5, t.tProgram),
    };
    batch[1].xferInTicks = t.transferTime(64);
    DeviceTransaction erase;
    erase.cls = TxClass::kErase;
    erase.addr = planeAddr(0, 1, 0);
    erase.arrayTicks = t.tErase;
    batch.push_back(erase);
    DeviceTransaction sense;
    sense.cls = TxClass::kParaBit;
    sense.addr = planeAddr(0, 1, 0);
    sense.cmdTicks = t.tCmdOverhead;
    sense.xferInTicks = t.transferTime(64);
    sense.arrayTicks = t.senseTime(3);
    sense.xferOutTicks = t.transferTime(64);
    batch.push_back(sense);
    sense.addr = planeAddr(0, 0, 1);
    sense.xferInTicks = 0;
    sense.xferOutTicks = 0;
    batch.push_back(sense);
    DeviceTransaction delay;
    delay.cls = TxClass::kParaBit;
    delay.readyAt = 7;
    delay.cmdTicks = t.tCmdOverhead;
    batch.push_back(delay);

    struct Run
    {
        std::vector<Tick> completions;
        std::vector<TxRecord> records;
        SchedStats stats;
        std::vector<std::uint64_t> latencySamples; ///< per TxClass
        std::size_t spans = 0;
        StageTicks stages;
    };
    // The registry makes the latency histograms live; it is wiped
    // however the test ends.
    struct RegistryOn
    {
        RegistryOn() { obs::MetricsRegistry::global().setEnabled(true); }
        ~RegistryOn()
        {
            obs::MetricsRegistry::global().setEnabled(false);
            obs::MetricsRegistry::global().clear();
        }
    } registry_on;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const auto run = [&](bool observed) {
        reg.zero();
        constexpr std::uint64_t kToken = 7;
        TransactionScheduler s(flash::FlashGeometry::tiny(), t,
                               SchedConfig{});
        obs::TraceSink sink;
        if (observed) {
            s.setTraceSink(&sink);
            s.beginCommandAttribution(kToken);
        }
        std::vector<std::uint64_t> ids;
        for (const DeviceTransaction &tx : batch)
            ids.push_back(s.submit(tx));
        s.endCommandAttribution();
        s.drain();
        Run r;
        for (const std::uint64_t id : ids)
            r.completions.push_back(s.completionOf(id));
        r.records = s.records();
        r.stats = s.stats();
        for (int c = 0; c < kNumTxClasses; ++c)
            r.latencySamples.push_back(
                reg.histograms()
                    .at(std::string("sched.latency_us.") +
                        txClassName(static_cast<TxClass>(c)))
                    .total());
        r.spans = tracecheck::checkTrace(sink.toJson()).stats.spans;
        r.stages = s.takeCommandStages(kToken);
        return r;
    };
    const Run plain = run(false);
    const Run traced = run(true);

    EXPECT_EQ(traced.completions, plain.completions);
    ASSERT_EQ(traced.records.size(), plain.records.size());
    for (std::size_t i = 0; i < plain.records.size(); ++i) {
        const TxRecord &a = plain.records[i];
        const TxRecord &b = traced.records[i];
        EXPECT_EQ(b.id, a.id) << "tx " << i;
        EXPECT_EQ(b.cls, a.cls) << "tx " << i;
        EXPECT_EQ(b.readyAt, a.readyAt) << "tx " << i;
        EXPECT_EQ(b.complete, a.complete) << "tx " << i;
        EXPECT_EQ(b.arrayTicks, a.arrayTicks) << "tx " << i;
        EXPECT_EQ(b.arrayExecuted, a.arrayExecuted) << "tx " << i;
        EXPECT_EQ(b.suspends, a.suspends) << "tx " << i;
    }
    EXPECT_EQ(traced.stats.channelBusy, plain.stats.channelBusy);
    EXPECT_EQ(traced.stats.dieBusy, plain.stats.dieBusy);
    EXPECT_EQ(traced.stats.maxQueueDepth, plain.stats.maxQueueDepth);
    // Channel 0 carries the read's, the program's and the first
    // sense's transfers: four entries.
    EXPECT_EQ(plain.stats.maxQueueDepth, 4u);
    EXPECT_EQ(traced.latencySamples, plain.latencySamples);
    EXPECT_EQ(plain.latencySamples,
              (std::vector<std::uint64_t>{1, 1, 1, 3, 0}));

    // Nine nonzero phases, each one span; the delay books none.
    EXPECT_EQ(plain.spans, 0u);
    EXPECT_EQ(traced.spans, 9u);
    EXPECT_EQ(plain.stages.txCount, 0u);
    EXPECT_EQ(traced.stages.txCount, batch.size());
    Tick busy = 0;
    for (const Tick b : traced.stats.channelBusy)
        busy += b;
    for (const Tick b : traced.stats.dieBusy)
        busy += b;
    Tick staged = 0;
    for (const Tick p : traced.stages.phase)
        staged += p;
    EXPECT_EQ(staged, busy);
    EXPECT_GT(traced.stages.queueWait, 0u);
}

TEST(SchedPolicy, EventPathBooksTheClosedFormWhenNothingCanOvertake)
{
    // Array-only transactions (erases and ParaBit senses) that share
    // one ready tick per batch: on each plane every entry becomes ready
    // at once, so ooo_die_first and read_priority serve the plane in
    // submission order, and nothing they run is preempted (no reads).
    // Both must then book exactly what FCFS books in closed form,
    // across batches too (the Timelines persist).
    for (const SsdConfig &preset : {SsdConfig::tiny(), SsdConfig::paperSsd()}) {
        const flash::FlashGeometry &g = preset.geometry;
        const flash::FlashTiming &t = preset.timing;
        for (const SchedPolicyKind p : {SchedPolicyKind::kOutOfOrderDieFirst,
                                        SchedPolicyKind::kReadPriority}) {
            SchedConfig cfg;
            cfg.policy = p;
            TransactionScheduler fcfs(g, t, SchedConfig{});
            TransactionScheduler evt(g, t, cfg);
            Rng rng(0xC105EDF0);
            std::uint64_t token = 0;
            for (int batch = 0; batch < 4; ++batch) {
                const Tick ready = ticks::fromMs(1) * batch;
                std::vector<std::uint64_t> ids;
                // More transactions than planes: tiny has 8, and
                // paperSsd's first two channels and chips hold 32.
                for (int i = 0; i < 40; ++i) {
                    DeviceTransaction tx;
                    tx.addr.channel = static_cast<std::uint32_t>(
                        rng.below(std::min(g.channels, 2u)));
                    tx.addr.chip = static_cast<std::uint32_t>(
                        rng.below(std::min(g.chipsPerChannel, 2u)));
                    tx.addr.die =
                        static_cast<std::uint32_t>(rng.below(g.diesPerChip));
                    tx.addr.plane = static_cast<std::uint32_t>(
                        rng.below(g.planesPerDie));
                    tx.readyAt = ready;
                    tx.cmdTicks = t.tCmdOverhead;
                    if (rng.below(2) == 0) {
                        tx.cls = TxClass::kErase;
                        tx.arrayTicks = t.tErase;
                    } else {
                        tx.cls = TxClass::kParaBit;
                        tx.arrayTicks = t.senseTime(
                            1 + static_cast<int>(rng.below(7)));
                    }
                    for (TransactionScheduler *s : {&fcfs, &evt}) {
                        s->beginCommandAttribution(token);
                        const std::uint64_t id = s->submit(tx);
                        s->endCommandAttribution();
                        if (s == &fcfs)
                            ids.push_back(id);
                    }
                    ++token;
                }
                EXPECT_EQ(evt.drain(), fcfs.drain());
                for (std::size_t i = 0; i < ids.size(); ++i)
                    ASSERT_EQ(evt.completionOf(ids[i]),
                              fcfs.completionOf(ids[i]))
                        << policyName(p) << " batch " << batch << " tx "
                        << i;
                for (std::uint64_t k = token - ids.size(); k < token; ++k) {
                    const StageTicks a = fcfs.takeCommandStages(k);
                    const StageTicks b = evt.takeCommandStages(k);
                    EXPECT_EQ(b.queueWait, a.queueWait) << "token " << k;
                    EXPECT_EQ(b.phase, a.phase) << "token " << k;
                }
            }
            const SchedStats a = fcfs.stats();
            const SchedStats b = evt.stats();
            EXPECT_EQ(b.dieBusy, a.dieBusy) << policyName(p);
            EXPECT_EQ(b.channelBusy, a.channelBusy) << policyName(p);
            EXPECT_EQ(b.maxQueueDepth, a.maxQueueDepth) << policyName(p);
            EXPECT_EQ(b.suspends, 0u) << policyName(p);
        }
    }
}

TEST(SchedBookkeeping, LatencySamplingPerClass)
{
    SchedConfig cfg;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    s.submit(programTx(planeAddr(0, 0, 1), 0, 100));
    s.drain();
    std::vector<Tick> reads;
    int programs = 0;
    int erases = 0;
    for (const TxRecord &r : s.records()) {
        if (r.cls == TxClass::kRead)
            reads.push_back(r.complete - r.readyAt);
        programs += r.cls == TxClass::kProgram ? 1 : 0;
        erases += r.cls == TxClass::kErase ? 1 : 0;
    }
    // The second read queues behind the first on the shared plane.
    EXPECT_EQ(reads, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(programs, 1);
    EXPECT_EQ(erases, 0);
}

TEST(SchedTrace, PhaseOrderAndNonOverlapObservable)
{
    // Default timing, not testTiming(): the trace renders ticks at
    // nanosecond precision, where testTiming's picosecond suspend and
    // resume transitions would collapse to zero-length spans.
    const flash::FlashTiming t;
    for (int p = 0; p < kNumSchedPolicies; ++p) {
        SchedConfig cfg;
        cfg.policy = static_cast<SchedPolicyKind>(p);
        TransactionScheduler s(flash::FlashGeometry::tiny(), t, cfg);
        obs::TraceSink sink;
        s.setTraceSink(&sink);
        // A read reaches the plane halfway through a program (read
        // priority suspends the program for it); a read on another
        // chip shares the channel.
        s.submit(programTx(planeAddr(0, 0, 0), 0, t.tProgram));
        s.submit(readTx(planeAddr(0, 0, 0), t.tProgram / 2, t.lsbReadTime(),
                        t.transferTime(64)));
        s.submit(readTx(planeAddr(0, 1, 0), 0, t.msbReadTime(),
                        t.transferTime(64)));
        s.drain();
        const bool suspends = cfg.policy == SchedPolicyKind::kReadPriority;
        EXPECT_EQ(s.stats().suspends, suspends ? 1u : 0u);

        const tracecheck::CheckResult r = tracecheck::checkTrace(sink.toJson());
        EXPECT_TRUE(r.ok()) << policyName(cfg.policy) << "\n"
                            << tracecheck::toJson(r);
        // Program array (split by suspend/resume when suspended), plus
        // array and transfer-out of each read.
        EXPECT_EQ(r.stats.spans, suspends ? 8u : 5u);
    }
}

TEST(SchedResources, DieTracksAndResourcesFollowChannelMajorOrder)
{
    // Every coordinate takes two values, so swapping any two axes of
    // the linearisation would reorder the tracks and the resources.
    flash::FlashGeometry g = flash::FlashGeometry::tiny();
    g.channels = 2;
    g.chipsPerChannel = 2;
    g.diesPerChip = 2;
    g.planesPerDie = 2;
    TransactionScheduler s(g, testTiming(), SchedConfig{});
    obs::TraceSink sink;
    s.setTraceSink(&sink);
    std::uint32_t p = 0;
    for (std::uint32_t ch = 0; ch < 2; ++ch)
        for (std::uint32_t chip = 0; chip < 2; ++chip)
            for (std::uint32_t die = 0; die < 2; ++die)
                for (std::uint32_t plane = 0; plane < 2; ++plane, ++p) {
                    // Tracks were created channels first, then one per
                    // plane: looking a name up again returns its track.
                    const std::string name =
                        "ch" + std::to_string(ch) + " chip" +
                        std::to_string(chip) + " die" + std::to_string(die) +
                        " plane" + std::to_string(plane);
                    EXPECT_EQ(sink.track("dies", name).tid,
                              g.channels + 1 + p)
                        << name;
                    flash::PhysPageAddr a;
                    a.channel = ch;
                    a.chip = chip;
                    a.die = die;
                    a.plane = plane;
                    s.submit(readTx(a, 0, 10 * (p + 1), 0));
                }
    EXPECT_EQ(sink.trackCount(), g.channels + g.planesTotal())
        << "a looked-up name matched no scheduler track";
    s.drain();
    const SchedStats st = s.stats();
    ASSERT_EQ(st.dieBusy.size(), g.planesTotal());
    for (std::uint32_t i = 0; i < g.planesTotal(); ++i)
        EXPECT_EQ(st.dieBusy[i], Tick{10} * (i + 1)) << "plane " << i;
}

DeviceTransaction
scrubTx(const flash::PhysPageAddr &a, Tick ready, Tick array)
{
    DeviceTransaction tx;
    tx.cls = TxClass::kScrub;
    tx.addr = a;
    tx.readyAt = ready;
    tx.arrayTicks = array;
    return tx;
}

TEST(SchedScrub, ClassNameAndSuspendability)
{
    EXPECT_STREQ(txClassName(TxClass::kScrub), "scrub");
}

TEST(SchedScrub, RunsAfterEveryForegroundClass)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // A running read holds the plane 0-50 (reads are never preempted),
    // so the next three arbitrate when it frees.  The scan was queued
    // FIRST (oldest seq) yet both the read and the program beat it.
    s.submit(readTx(planeAddr(0, 0, 0), 0, 50, 0));
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 10));
    const auto pr = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    s.drain();
    EXPECT_EQ(s.completionOf(rd), 60u);
    EXPECT_EQ(s.completionOf(pr), 160u);
    EXPECT_EQ(s.completionOf(sc), 170u); // background: strictly last
}

TEST(SchedScrub, AntiStarvationBoundPromotesDeferredScan)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.scrubMaxDeferredTicks = 50;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // The blocker read holds the plane 0-100.  By then the scan has
    // been deferred past the 50-tick bound, left the background bucket
    // and — as the oldest entry — beats the program to the plane.
    s.submit(readTx(planeAddr(0, 0, 0), 0, 100, 0));
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 10));
    const auto pr = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    s.drain();
    EXPECT_EQ(s.completionOf(sc), 110u); // promoted ahead of the program
    EXPECT_EQ(s.completionOf(pr), 210u);
}

TEST(SchedScrub, WithoutBoundHostTrafficKeepsWinning)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.scrubMaxDeferredTicks = ticks::fromMs(1); // far beyond this run
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    s.submit(readTx(planeAddr(0, 0, 0), 0, 100, 0));
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 10));
    const auto pr = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    s.drain();
    EXPECT_EQ(s.completionOf(pr), 200u);
    EXPECT_EQ(s.completionOf(sc), 210u); // still dead last
}

TEST(SchedScrub, ArrivingReadSuspendsRunningScan)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // Same arithmetic as SuspendResumeArithmetic, with the scan in the
    // program's role: scan 0-40, suspend (7) to 47, read 47-57, resume
    // (9) to 66, remainder 66-126.
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    s.drain();
    EXPECT_EQ(s.completionOf(rd), 57u);
    EXPECT_EQ(s.completionOf(sc), 126u);
    EXPECT_EQ(s.stats().suspends, 1u);
}

} // namespace
} // namespace parabit::ssd::sched
