/**
 * @file
 * Host-interface tests: formulas through the full queue path, mixed
 * I/O interference, round-robin arbitration, back-pressure, and the
 * LBA range check at the boundary.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "parabit/host_interface.hpp"

namespace parabit::core {
namespace {

std::vector<BitVector>
pages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (int p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

TEST(HostInterface, FormulaThroughTheWire)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 1);
    const auto y = pages(dev.ssd().config(), 1, 2);
    dev.writeData(0, x);
    dev.writeData(10, y);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kXor});
    const auto cid = host.submitFormula(0, f);
    ASSERT_TRUE(cid);
    EXPECT_GT(host.pump(), 0u);
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cid, *cid);
    EXPECT_GT(c->latency, 0u);
    ASSERT_EQ(c->pages.size(), 1u);
    EXPECT_EQ(c->pages[0], x[0] ^ y[0]);
}

TEST(HostInterface, ChainedFormulaThroughTheWire)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    std::vector<std::vector<BitVector>> ops;
    std::vector<nvme::Lpn> lpns{0, 20, 40};
    for (int k = 0; k < 3; ++k) {
        ops.push_back(pages(dev.ssd().config(), 1,
                            10 + static_cast<std::uint64_t>(k)));
        dev.writeDataLsbOnly(lpns[static_cast<std::size_t>(k)],
                             ops.back());
    }
    HostInterface host(dev, 1, 32, Mode::kPreAllocated);
    const nvme::Formula f =
        nvme::Formula::chain(flash::BitwiseOp::kAnd, lpns, 1);
    ASSERT_TRUE(host.submitFormula(0, f));
    host.pump();
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->pages[0], ops[0][0] & ops[1][0] & ops[2][0]);
}

TEST(HostInterface, ChainOpFormulaFailsInvalidFieldAndLaterReadSucceeds)
{
    // (A AND B) XOR (C AND D): its Fig 12 chain batch combines two
    // results, which the device cannot sense in flash.  The formula must
    // complete with an error, and the queue must keep serving.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    dev.writeData(0, pages(dev.ssd().config(), 5, 31));
    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(1, 1),
                                          flash::BitwiseOp::kAnd});
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(2, 1),
                                          nvme::OperandRef::logical(3, 1),
                                          flash::BitwiseOp::kAnd});
    f.chainOps.push_back(flash::BitwiseOp::kXor);
    const auto formula_cid = host.submitFormula(0, f);
    ASSERT_TRUE(formula_cid);
    const auto read_cid = host.submitRead(0, 4);
    ASSERT_TRUE(read_cid);
    host.pump();

    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cid, *formula_cid);
    EXPECT_EQ(c->status, nvme::kInvalidField);
    EXPECT_TRUE(c->pages.empty());
    const auto r = host.reap(0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->cid, *read_cid);
    EXPECT_TRUE(r->ok());
}

/**
 * On a health-tracked tiny() device, @p submit sends one command that
 * names logicalPages() + 5, and a read of a written page queues behind
 * it.  The command must complete once with LBA Out of Range before
 * anything reaches the FTL, charge the health machine nothing, and
 * leave the read to complete OK.
 */
template <class Submit>
void
expectLbaOutOfRange(Submit &&submit)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.health.enabled = true;
    ParaBitDevice dev(cfg);
    dev.writeData(3, pages(cfg, 1, 9));
    HostInterface host(dev, 1, 16, Mode::kReAllocate);
    const nvme::Lpn beyond = dev.ssd().ftl().logicalPages() + 5;
    const auto bad = submit(host, beyond);
    ASSERT_TRUE(bad);
    const auto read = host.submitRead(0, 3);
    ASSERT_TRUE(read);
    host.pump();

    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cid, *bad);
    EXPECT_EQ(c->status, nvme::kLbaOutOfRange);
    EXPECT_TRUE(c->pages.empty());
    const auto r = host.reap(0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->cid, *read);
    EXPECT_TRUE(r->ok());
    EXPECT_FALSE(host.reap(0)) << "one completion per command";
    EXPECT_EQ(dev.ssd().health()->pressure(), 0.0);
    EXPECT_EQ(dev.ssd().health()->state(), ssd::HealthState::kHealthy);
}

TEST(HostInterface, WriteBeyondCapacityIsLbaOutOfRange)
{
    expectLbaOutOfRange([](HostInterface &host, nvme::Lpn lpn) {
        return host.submitWrite(0, lpn);
    });
}

TEST(HostInterface, ReadBeyondCapacityIsLbaOutOfRange)
{
    expectLbaOutOfRange([](HostInterface &host, nvme::Lpn lpn) {
        return host.submitRead(0, lpn);
    });
}

TEST(HostInterface, FormulaOperandBeyondCapacityIsLbaOutOfRange)
{
    expectLbaOutOfRange([](HostInterface &host, nvme::Lpn lpn) {
        nvme::Formula f;
        f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(3, 1),
                                              nvme::OperandRef::logical(lpn, 1),
                                              flash::BitwiseOp::kAnd});
        return host.submitFormula(0, f);
    });
}

TEST(HostInterface, PlainIoCompletesWithDeviceLatency)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 3);
    dev.writeData(5, d);
    HostInterface host(dev, 1, 8);
    ASSERT_TRUE(host.submitRead(0, 5));
    host.pump();
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    // An LSB/MSB read takes at least one 25 us sensing.
    EXPECT_GE(c->latency, ticks::fromUs(25));
    EXPECT_TRUE(c->pages.empty());
}

TEST(HostInterface, CompletionsEmitAsyncTraceSpans)
{
    obs::TraceSink &sink = obs::TraceSink::enableGlobal();
    sink.clear();
    {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        const auto x = pages(dev.ssd().config(), 1, 1);
        const auto y = pages(dev.ssd().config(), 1, 2);
        dev.writeData(0, x);
        dev.writeData(10, y);
        HostInterface host(dev, 1, 8, Mode::kReAllocate);
        ASSERT_TRUE(host.submitRead(0, 0));
        nvme::Formula f;
        f.terms.push_back(
            nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                nvme::OperandRef::logical(10, 1),
                                flash::BitwiseOp::kXor});
        ASSERT_TRUE(host.submitFormula(0, f));
        host.pump();
        while (host.reap(0))
            ;
    }
    const std::string json = sink.toJson();
    obs::TraceSink::disableGlobal();
    // The read and the formula each close one async begin/end pair on
    // the host queue's track.
    EXPECT_NE(json.find("\"cat\":\"nvme\",\"id\":\"0\",\"name\":\"read\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"formula\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"queue 0\"}"),
              std::string::npos);
    const auto count = [&json](const char *needle) {
        std::size_t n = 0;
        for (std::size_t at = json.find(needle); at != std::string::npos;
             at = json.find(needle, at + 1))
            ++n;
        return n;
    };
    // Read + host formula + the controller's own formula span: every
    // begin is closed by a matching end.
    EXPECT_GE(count("\"ph\":\"b\""), 2u);
    EXPECT_EQ(count("\"ph\":\"b\""), count("\"ph\":\"e\""));
}

TEST(HostInterface, RoundRobinServesBothQueues)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 4);
    dev.writeData(0, d);
    dev.writeData(1, d);
    HostInterface host(dev, 2, 8);
    ASSERT_TRUE(host.submitRead(0, 0));
    ASSERT_TRUE(host.submitRead(1, 1));
    EXPECT_EQ(host.pump(), 2u);
    EXPECT_TRUE(host.reap(0).has_value());
    EXPECT_TRUE(host.reap(1).has_value());
}

TEST(HostInterface, FormulaRejectedWhenRingCannotHoldIt)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    dev.writeMeta(0, 4);
    dev.writeMeta(10, 4);
    HostInterface host(dev, 1, 4); // 3 usable slots
    nvme::Formula f;
    // 4 pages -> 8 commands: cannot fit.
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 4),
                                          nvme::OperandRef::logical(10, 4),
                                          flash::BitwiseOp::kAnd});
    EXPECT_FALSE(host.submitFormula(0, f).has_value());
}

TEST(HostInterface, PartialRingFullQueuesNothingAndRingIsUnchanged)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 2, 11);
    const auto y = pages(dev.ssd().config(), 2, 12);
    dev.writeData(0, x);
    dev.writeData(10, y);

    HostInterface host(dev, 1, 8); // 7 usable slots
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(host.submitRead(0, 0));

    // A 2-page formula needs 4 commands; 4 + 4 > 7 -> whole submission
    // refused, nothing partially queued.
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 2),
                                          nvme::OperandRef::logical(10, 2),
                                          flash::BitwiseOp::kAnd});
    EXPECT_FALSE(host.submitFormula(0, f).has_value());

    // The ring holds exactly the four reads: they retire cleanly and
    // no formula completion ever appears.
    EXPECT_EQ(host.pump(), 4u);
    for (int i = 0; i < 4; ++i) {
        const auto c = host.reap(0);
        ASSERT_TRUE(c);
        EXPECT_TRUE(c->ok());
        EXPECT_TRUE(c->pages.empty());
    }
    EXPECT_FALSE(host.reap(0).has_value());

    // A formula that fits still goes through afterwards.
    nvme::Formula g;
    g.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kXor});
    ASSERT_TRUE(host.submitFormula(0, g));
    host.pump();
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    ASSERT_EQ(c->pages.size(), 1u);
    EXPECT_EQ(c->pages[0], x[0] ^ y[0]);
}

TEST(HostInterface, ErrorCompletionsKeepOrderAndCarryStatus)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 4, 21);
    dev.writeData(0, d); // LPNs 0..3 stripe across planes

    // Kill the plane holding LPN 1; find a survivor LPN elsewhere.
    const auto victim = dev.ssd().ftl().lookup(1);
    ASSERT_TRUE(victim.has_value());
    const flash::PlaneIndex dead_plane =
        flash::planeIndex(dev.ssd().geometry(), *victim);
    nvme::Lpn ok_lpn = 0;
    for (nvme::Lpn l = 0; l < 4; ++l) {
        const auto a = dev.ssd().ftl().lookup(l);
        ASSERT_TRUE(a.has_value());
        if (flash::planeIndex(dev.ssd().geometry(), *a) != dead_plane) {
            ok_lpn = l;
            break;
        }
    }
    ssd::FaultSpec s;
    s.cls = ssd::FaultClass::kDeadPlane;
    s.plane = dead_plane;
    dev.ssd().injectFault(s);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    ASSERT_TRUE(host.submitRead(0, ok_lpn));
    ASSERT_TRUE(host.submitRead(0, 1)); // dead-plane read
    nvme::Formula f;               // formula over the dead operand
    f.terms.push_back(nvme::Formula::Term{
        nvme::OperandRef::logical(ok_lpn, 1), nvme::OperandRef::logical(1, 1),
        flash::BitwiseOp::kXor});
    ASSERT_TRUE(host.submitFormula(0, f));
    ASSERT_TRUE(host.submitRead(0, ok_lpn));
    host.pump();

    // Completions reap strictly in submission order, statuses attached.
    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_TRUE(c1->ok());
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_EQ(c2->status, nvme::kUnrecoveredReadError);
    const auto c3 = host.reap(0);
    ASSERT_TRUE(c3);
    EXPECT_EQ(c3->status, nvme::kUnrecoveredReadError)
        << "data loss must surface as a media error";
    EXPECT_TRUE(c3->pages.empty())
        << "an errored formula must never hand pages to the host";
    const auto c4 = host.reap(0);
    ASSERT_TRUE(c4);
    EXPECT_TRUE(c4->ok()) << "a clean command after an error still works";
}

TEST(HostInterface, TimeoutAbortsThenRequeuedAttemptCompletes)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 31);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 8);
    // 1 ps: the first attempt always times out.
    host.setRetryPolicy(RetryPolicy{.commandTimeout = 1});
    ASSERT_TRUE(host.submitRead(0, 0));
    EXPECT_EQ(host.pump(), 2u) << "abort plus the requeued attempt";

    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_EQ(c1->status, nvme::kCommandAborted);
    EXPECT_EQ(c1->latency, Tick{1}) << "aborts complete at the deadline";
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_TRUE(c2->ok()) << "the second attempt runs to completion";
    EXPECT_EQ(host.timeouts(), 1u);
    EXPECT_EQ(host.requeues(), 1u);
}

TEST(HostInterface, FormulaTimeoutRequeuesWholeGroup)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 32);
    const auto y = pages(dev.ssd().config(), 1, 33);
    dev.writeData(0, x);
    dev.writeData(10, y);

    HostInterface host(dev, 1, 16, Mode::kReAllocate);
    host.setRetryPolicy(RetryPolicy{.commandTimeout = 1});
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kOr});
    ASSERT_TRUE(host.submitFormula(0, f));
    host.pump();

    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_EQ(c1->status, nvme::kCommandAborted);
    EXPECT_TRUE(c1->pages.empty());
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_TRUE(c2->ok());
    ASSERT_EQ(c2->pages.size(), 1u);
    EXPECT_EQ(c2->pages[0], x[0] | y[0]);
    EXPECT_EQ(host.requeues(), 1u);
}

TEST(HostInterface, RetryBudgetAllowsTwoAbortsThenTerminalCompletion)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 41);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 8);
    RetryPolicy p;
    p.commandTimeout = 1; // 1 ps: every timed attempt misses
    p.maxRequeues = 2;
    host.setRetryPolicy(p);
    ASSERT_TRUE(host.submitRead(0, 0));
    EXPECT_EQ(host.pump(), 3u) << "two aborts plus the terminal attempt";

    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_EQ(c1->status, nvme::kCommandAborted);
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_EQ(c2->status, nvme::kCommandAborted);
    const auto c3 = host.reap(0);
    ASSERT_TRUE(c3);
    EXPECT_TRUE(c3->ok()) << "the attempt after the last requeue runs "
                             "to completion";
    EXPECT_FALSE(host.reap(0).has_value()) << "no ghost completions";
    EXPECT_EQ(host.timeouts(), 2u);
    EXPECT_EQ(host.requeues(), 2u);
}

TEST(HostInterface, ZeroRequeueBudgetRunsFirstAttemptToCompletion)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 42);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 8);
    RetryPolicy p;
    p.commandTimeout = 1;
    p.maxRequeues = 0; // watchdog armed but never allowed to requeue
    host.setRetryPolicy(p);
    ASSERT_TRUE(host.submitRead(0, 0));
    EXPECT_EQ(host.pump(), 1u);
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_TRUE(c->ok());
    EXPECT_EQ(host.timeouts(), 0u);
    EXPECT_EQ(host.requeues(), 0u);
}

TEST(HostInterface, BackoffRequeueIsDeterministicAndNeverUnderflows)
{
    const auto run = [] {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        dev.writeMeta(0, 2);
        HostInterface host(dev, 1, 8);
        RetryPolicy p;
        p.commandTimeout = 1;
        p.maxRequeues = 2;
        p.backoffBase = flash::kDefaultRequeueBackoff;
        p.jitterSeed = 0xC0FFEE;
        host.setRetryPolicy(p);
        EXPECT_TRUE(host.submitRead(0, 0));
        EXPECT_TRUE(host.submitRead(0, 1));
        host.pump();
        std::vector<Tick> latencies;
        while (const auto c = host.reap(0)) {
            // A backed-off resubmission carries a future submission
            // time; its completion must never precede it.
            EXPECT_LE(c->latency, ticks::fromMs(100));
            latencies.push_back(c->latency);
        }
        EXPECT_EQ(latencies.size(), 6u) << "2 aborts + terminal, each";
        return latencies;
    };
    EXPECT_EQ(run(), run()) << "seeded jitter must replay identically";
}

TEST(HostInterface, AbortWhileArrayPhaseBookedKeepsSchedInvariants)
{
    // The watchdog aborts commands whose array-phase transactions are
    // already booked on the scheduler; the booking record must stay
    // consistent (the abort is host-side bookkeeping, not a revocation
    // of device work).
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 4, 43);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 16);
    host.setRetryPolicy(RetryPolicy{.commandTimeout = 1});
    for (nvme::Lpn l = 0; l < 4; ++l)
        ASSERT_TRUE(host.submitRead(0, l));
    ASSERT_TRUE(host.submitWrite(0, 1));
    host.pump();
    std::size_t reaped = 0;
    for (; host.reap(0); ++reaped)
        ;
    EXPECT_EQ(reaped, 10u) << "5 aborts + 5 completed requeued attempts";

    InvariantReport r;
    ASSERT_TRUE(dev.ssd().invariantRegistry().runSuite("sched", r));
    EXPECT_TRUE(r.ok()) << r.describe();
}

TEST(HostInterface, FullCompletionQueueHoldsEveryAttempt)
{
    // Every attempt of a retried command posts a completion, and the
    // pump retires them all before the host reaps: nine completions
    // through a CQ with three slots.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    dev.writeData(0, pages(dev.ssd().config(), 3, 44));
    HostInterface host(dev, 1, 4); // 3 CQ slots
    host.setRetryPolicy(RetryPolicy{.commandTimeout = 1, .maxRequeues = 2});
    for (nvme::Lpn l = 0; l < 3; ++l)
        ASSERT_TRUE(host.submitRead(0, l));
    EXPECT_EQ(host.pump(), 9u);

    std::vector<std::uint16_t> statuses;
    while (const auto c = host.reap(0))
        statuses.push_back(c->status);
    ASSERT_EQ(statuses.size(), 9u) << "a full CQ holds, never drops";
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(statuses[i], nvme::kCommandAborted) << "completion " << i;
    for (std::size_t i = 6; i < 9; ++i)
        EXPECT_EQ(statuses[i], nvme::kSuccess) << "completion " << i;
}

TEST(HostInterface, QueueDepthAddsLatency)
{
    // Two reads targeting the same page serialise on the same plane;
    // the second command's completion must show queueing delay.
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.planesPerDie = 1;
    ParaBitDevice dev(cfg);
    dev.writeMeta(0, 1);
    HostInterface host(dev, 1, 8);
    ASSERT_TRUE(host.submitRead(0, 0));
    ASSERT_TRUE(host.submitRead(0, 0));
    host.pump();
    const auto c1 = host.reap(0);
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c1 && c2);
    EXPECT_GT(c2->latency, c1->latency)
        << "the queued command must wait for the first";
}

TEST(HostInterface, MixedIoAndComputeInterleave)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 6);
    const auto y = pages(dev.ssd().config(), 1, 7);
    dev.writeData(0, x);
    dev.writeData(10, y);
    dev.writeData(20, x);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    ASSERT_TRUE(host.submitRead(0, 20));
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kOr});
    ASSERT_TRUE(host.submitFormula(0, f));
    ASSERT_TRUE(host.submitRead(0, 20));
    EXPECT_EQ(host.pump(), 3u);

    // Completions arrive in order: read, formula, read.
    const auto c1 = host.reap(0);
    const auto c2 = host.reap(0);
    const auto c3 = host.reap(0);
    ASSERT_TRUE(c1 && c2 && c3);
    EXPECT_TRUE(c1->pages.empty());
    ASSERT_EQ(c2->pages.size(), 1u);
    EXPECT_EQ(c2->pages[0], x[0] | y[0]);
    EXPECT_TRUE(c3->pages.empty());
}

} // namespace
} // namespace parabit::core
