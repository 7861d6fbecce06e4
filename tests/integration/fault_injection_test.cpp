/**
 * @file
 * End-to-end reliability: under every injected fault class, every
 * formula either completes bit-exact against a host-computed reference
 * or surfaces a typed error — never silent corruption (the contract the
 * detect-and-escalate ladder plus host fallback provides for results
 * that bypass ECC, paper Section 5.8).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "parabit/device.hpp"
#include "ssd/fault_injector.hpp"

namespace parabit::core {
namespace {

constexpr std::uint32_t kPages = 4;

ssd::SsdConfig
noisyTiny(std::uint64_t seed, double errors_per_page = 8.0)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.seed = seed;
    cfg.errors.observedErrorsAtRef = errors_per_page;
    cfg.errors.wordlineBits = static_cast<double>(cfg.geometry.pageBits());
    cfg.errors.refPeCycles = 1.0;
    cfg.errors.decadesOverLife = 0.0;
    return cfg;
}

std::vector<BitVector>
randomPages(const ssd::SsdConfig &cfg, std::uint32_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (std::uint32_t p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

BitVector
cpuRef(flash::BitwiseOp op, const BitVector &x, const BitVector &y)
{
    switch (op) {
      case flash::BitwiseOp::kAnd: return x & y;
      case flash::BitwiseOp::kOr: return x | y;
      case flash::BitwiseOp::kXor: return x ^ y;
      case flash::BitwiseOp::kXnor: return ~(x ^ y);
      case flash::BitwiseOp::kNand: return ~(x & y);
      case flash::BitwiseOp::kNor: return ~(x | y);
      default: return ~x;
    }
}

const std::vector<flash::BitwiseOp> kBinaryOps = {
    flash::BitwiseOp::kAnd,  flash::BitwiseOp::kOr,  flash::BitwiseOp::kXor,
    flash::BitwiseOp::kXnor, flash::BitwiseOp::kNand, flash::BitwiseOp::kNor,
};

struct FaultRig
{
    explicit FaultRig(std::uint64_t seed, double errors_per_page = 8.0)
        : dev(noisyTiny(seed, errors_per_page)),
          x(randomPages(dev.ssd().config(), kPages, seed ^ 1)),
          y(randomPages(dev.ssd().config(), kPages, seed ^ 2))
    {
        ReliabilityPolicy p;
        p.enabled = true;
        dev.controller().setReliability(p);
        dev.writeData(0, x);
        dev.writeData(100, y);
    }

    /** Runs every binary op; returns the silent-corruption count. */
    int
    sweep(ExecStats *total = nullptr)
    {
        int corrupt = 0;
        for (const auto op : kBinaryOps) {
            ExecResult r =
                dev.bitwise(op, 0, 100, kPages, Mode::kReAllocate);
            for (std::uint32_t p = 0; p < kPages; ++p) {
                if (p < r.pages.size() && !r.pages[p].empty()) {
                    // Whatever was handed out must be bit-exact.
                    if (r.pages[p] != cpuRef(op, x[p], y[p]))
                        ++corrupt;
                } else {
                    // Withheld data is only legal under a typed error.
                    if (r.status == ExecStatus::kOk)
                        ++corrupt;
                }
            }
            if (total)
                total->accumulate(r.stats);
        }
        return corrupt;
    }

    ParaBitDevice dev;
    std::vector<BitVector> x, y;
};

TEST(FaultInjection, ElevatedRberIsDetectedAndCorrected)
{
    // Mild enough that the known-answer self-test still trusts the
    // planes (3-vote majority absorbs it), noisy enough that the
    // single-execution rung misdelivers constantly — the regime the
    // parity/duplicate checks and vote escalation exist for.
    FaultRig rig(41, 1.0);
    for (ssd::PlaneIndex p = 0; p < rig.dev.ssd().geometry().planesTotal();
         ++p) {
        ssd::FaultSpec s;
        s.cls = ssd::FaultClass::kElevatedRber;
        s.plane = p;
        s.rberMultiplier = 4.0;
        rig.dev.ssd().injectFault(s);
    }
    rig.dev.controller().invalidatePlaneTrust();

    ExecStats stats;
    EXPECT_EQ(rig.sweep(&stats), 0) << "silent corruption detected";
    EXPECT_GT(stats.detections, 0u)
        << "at this error rate the cheap checks must fire";
    EXPECT_GT(stats.parityChecks, 0u);
}

TEST(FaultInjection, StuckBitlinesFailSelfTestAndFallBackToHost)
{
    // Stuck sense amplifiers are consistent: every redundant run agrees
    // on the same wrong answer, so only the known-answer self-test can
    // catch them.  All planes are poisoned; every op must still be
    // bit-exact via the host path.
    FaultRig rig(43, 0.0); // no random noise: isolate the stuck fault
    for (ssd::PlaneIndex p = 0; p < rig.dev.ssd().geometry().planesTotal();
         ++p) {
        ssd::FaultSpec s;
        s.cls = ssd::FaultClass::kStuckBitline;
        s.plane = p;
        s.stuckCount = 4;
        rig.dev.ssd().injectFault(s);
    }
    rig.dev.controller().invalidatePlaneTrust();

    ExecStats stats;
    EXPECT_EQ(rig.sweep(&stats), 0) << "silent corruption detected";
    EXPECT_GT(stats.selfTests, 0u);
    EXPECT_GT(stats.hostFallbacks, 0u)
        << "untrusted planes must route to the host fallback";

    // NOT in place (no reallocation read to recompute from): the host
    // path reads the operand itself.
    const ExecResult r = rig.dev.bitwiseNot(0, kPages, Mode::kPreAllocated);
    ASSERT_EQ(r.status, ExecStatus::kOk);
    ASSERT_EQ(r.pages.size(), kPages);
    for (std::uint32_t p = 0; p < kPages; ++p)
        EXPECT_EQ(r.pages[p], ~rig.x[p]) << "page " << p;
    EXPECT_GE(r.stats.hostFallbacks, 1u);
    EXPECT_GE(r.stats.pageReads, 1u) << "the fallback reads the operand";
}

TEST(FaultInjection, ProgramFailuresRetireBlocksWithoutCorruption)
{
    FaultRig rig(47, 0.0);
    ssd::FaultSpec s;
    s.cls = ssd::FaultClass::kProgramFailure;
    s.plane = 0;
    s.failPeriod = 1; // every program into plane 0 fails
    rig.dev.ssd().injectFault(s);
    rig.dev.controller().invalidatePlaneTrust();

    EXPECT_EQ(rig.sweep(), 0) << "silent corruption detected";
    // Reallocation traffic hits plane 0 eventually; those programs fail,
    // retire blocks, and get retried elsewhere.
    EXPECT_GT(rig.dev.ssd().ftl().programFailures(), 0u);
    EXPECT_GT(rig.dev.ssd().ftl().retiredBlocks(), 0u);
}

TEST(FaultInjection, DeadPlaneSurfacesDataLossNotGarbage)
{
    FaultRig rig(53, 0.0);
    const auto yaddr = rig.dev.ssd().ftl().lookup(100);
    ASSERT_TRUE(yaddr.has_value());
    ssd::FaultSpec s;
    s.cls = ssd::FaultClass::kDeadPlane;
    s.plane = ssd::planeIndex(
        rig.dev.ssd().geometry(),
        {yaddr->channel, yaddr->chip, yaddr->die, yaddr->plane});
    rig.dev.ssd().injectFault(s);
    rig.dev.controller().invalidatePlaneTrust();

    EXPECT_EQ(rig.sweep(), 0) << "silent corruption detected";
    ExecResult r = rig.dev.bitwise(flash::BitwiseOp::kXor, 0, 100, kPages,
                                   Mode::kReAllocate);
    EXPECT_EQ(r.status, ExecStatus::kDataLoss)
        << "an unreachable operand must surface as typed data loss";
}

TEST(FaultInjection, DeadChipSurfacesDataLossNotGarbage)
{
    FaultRig rig(59, 0.0);
    const auto yaddr = rig.dev.ssd().ftl().lookup(100);
    ASSERT_TRUE(yaddr.has_value());
    ssd::FaultSpec s;
    s.cls = ssd::FaultClass::kDeadChip;
    s.plane = ssd::planeIndex(
        rig.dev.ssd().geometry(),
        {yaddr->channel, yaddr->chip, yaddr->die, yaddr->plane});
    rig.dev.ssd().injectFault(s);
    rig.dev.controller().invalidatePlaneTrust();

    EXPECT_EQ(rig.sweep(), 0) << "silent corruption detected";
    ExecResult r = rig.dev.bitwise(flash::BitwiseOp::kXor, 0, 100, kPages,
                                   Mode::kReAllocate);
    EXPECT_EQ(r.status, ExecStatus::kDataLoss);
}

TEST(FaultInjection, EraseFailuresRetireBlocksAndPreserveData)
{
    ParaBitDevice dev(noisyTiny(61, 0.0));
    ReliabilityPolicy pol;
    pol.enabled = true;
    dev.controller().setReliability(pol);

    ssd::FaultSpec s;
    s.cls = ssd::FaultClass::kEraseFailure;
    s.plane = 0;
    s.failPeriod = 1; // every erase of plane 0 fails
    dev.ssd().injectFault(s);

    // Churn a small working set hard enough to force GC (and with it,
    // erases) on every plane.
    const std::uint64_t live = 24;
    Rng rng(5);
    std::vector<BitVector> latest(live);
    for (int round = 0; round < 40; ++round) {
        for (std::uint64_t l = 0; l < live; ++l) {
            BitVector v(dev.ssd().geometry().pageBits());
            for (auto &w : v.words())
                w = rng.next();
            v.maskTail();
            latest[l] = v;
            dev.writeData(l, {v});
        }
    }
    EXPECT_GT(dev.ssd().ftl().eraseFailures(), 0u)
        << "plane-0 GC erases must have failed";
    EXPECT_GT(dev.ssd().ftl().retiredBlocks(), 0u);
    for (std::uint64_t l = 0; l < live; ++l)
        EXPECT_EQ(dev.readData(l, 1)[0], latest[l]) << "LPN " << l;

    // Computation still works on the degraded device.
    dev.writeData(200, {latest[0]});
    dev.writeData(300, {latest[1]});
    ExecResult r = dev.bitwise(flash::BitwiseOp::kAnd, 200, 300, 1,
                               Mode::kReAllocate);
    ASSERT_EQ(r.status, ExecStatus::kOk);
    ASSERT_EQ(r.pages.size(), 1u);
    EXPECT_EQ(r.pages[0], latest[0] & latest[1]);
}

TEST(FaultInjection, SeededRandomScheduleSweepHasZeroSilentCorruption)
{
    // The acceptance sweep: a reproducible random fault schedule over
    // the whole device, every fault class in play, every formula either
    // bit-exact or typed-error.
    for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
        FaultRig rig(seed);
        const auto sched = ssd::FaultInjector::randomSchedule(
            rig.dev.ssd().geometry(), seed, 6);
        for (const auto &f : sched)
            rig.dev.ssd().injectFault(f);
        rig.dev.controller().invalidatePlaneTrust();
        EXPECT_EQ(rig.sweep(), 0)
            << "silent corruption under seed " << seed;
    }
}

TEST(FaultInjection, NotIsExactUnderElevatedRber)
{
    FaultRig rig(67);
    for (ssd::PlaneIndex p = 0; p < rig.dev.ssd().geometry().planesTotal();
         ++p) {
        ssd::FaultSpec s;
        s.cls = ssd::FaultClass::kElevatedRber;
        s.plane = p;
        s.rberMultiplier = 20.0;
        rig.dev.ssd().injectFault(s);
    }
    rig.dev.controller().invalidatePlaneTrust();

    ExecResult r = rig.dev.bitwiseNot(0, kPages, Mode::kReAllocate);
    ASSERT_EQ(r.status, ExecStatus::kOk);
    ASSERT_EQ(r.pages.size(), kPages);
    for (std::uint32_t p = 0; p < kPages; ++p)
        EXPECT_EQ(r.pages[p], ~rig.x[p]) << "page " << p;
}

TEST(FaultInjection, DisabledPolicyStillRefusesDeadOperands)
{
    // Even with the reliability ladder off, data loss is typed — the
    // legacy path must never fabricate pages for unreachable operands.
    FaultRig rig(71, 0.0);
    rig.dev.controller().setReliability(ReliabilityPolicy{}); // disabled
    const auto yaddr = rig.dev.ssd().ftl().lookup(100);
    ASSERT_TRUE(yaddr.has_value());
    ssd::FaultSpec s;
    s.cls = ssd::FaultClass::kDeadPlane;
    s.plane = ssd::planeIndex(
        rig.dev.ssd().geometry(),
        {yaddr->channel, yaddr->chip, yaddr->die, yaddr->plane});
    rig.dev.ssd().injectFault(s);

    ExecResult r = rig.dev.bitwise(flash::BitwiseOp::kXor, 0, 100, kPages,
                                   Mode::kReAllocate);
    EXPECT_EQ(r.status, ExecStatus::kDataLoss);
}

} // namespace
} // namespace parabit::core
