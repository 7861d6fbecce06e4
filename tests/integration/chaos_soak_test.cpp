/**
 * @file
 * Chaos soak: seeded correlated fault storms through the full NVMe
 * queue path (ctest -L chaos_soak).
 *
 * Each seed drives one device through three phases — a healthy
 * baseline, a correlated fault storm (FaultInjector::stormSchedule plus
 * a guaranteed program-failure hot spot), and a post-storm recovery —
 * while a mixed read/write/formula/flush workload runs against the
 * host interface with the watchdog, bounded retries, backoff, and the
 * admission controller armed.  The soak proves the robustness
 * contract:
 *
 *  - zero lost or hung commands: every submission that yielded a cid is
 *    reaped with a terminal status (success, aborted, shed,
 *    write-protected, or a device error), and every attempt delivers
 *    its one completion: completions reaped equal accepted commands
 *    plus requeues;
 *  - health transitions are monotone-sensible: one step at a time,
 *    never while power is lost, and the storm drives the device at
 *    least to degraded;
 *  - the device recovers: once the storm's transient faults clear, the
 *    pressure budget decays and the machine steps back to healthy;
 *  - the whole-device invariant audit stays clean end to end.
 *
 * 64 seeds, sharded 4 x 16 so CI spreads them across cores.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/health.hpp"

namespace parabit::core {
namespace {

ssd::SsdConfig
chaosConfig()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(2);
    cfg.media.scrubWordlinesPerPass = 16;
    cfg.rain.enabled = true;
    cfg.health.enabled = true;
    // Test-tuned budget: a couple of block retirements reach degraded,
    // a sustained storm reaches read-only, and failed is out of reach
    // (a storm must degrade, not kill).
    cfg.health.degradedThreshold = 4.0;
    cfg.health.readOnlyThreshold = 12.0;
    cfg.health.failedThreshold = 1e9;
    // Long enough that the storm's charges accumulate across drains,
    // short enough that recovery completes within the quiet phase.
    cfg.health.pressureHalfLife = ticks::fromMs(2);
    cfg.health.minDwell = ticks::fromUs(200);
    // A single retired block is a degradation event at this scale: the
    // tiny geometry only has 8 blocks per plane.
    cfg.health.weightRetiredBlock = 4.0;
    return cfg;
}

std::vector<BitVector>
seededPages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
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

constexpr int kPreloadedLpns = 16;

void
runChaosSeed(std::uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ssd::SsdConfig cfg = chaosConfig();
    ParaBitDevice dev(cfg);
    dev.writeData(0, seededPages(cfg, kPreloadedLpns, seed));

    constexpr std::uint16_t kQueues = 2;
    constexpr std::uint16_t kDepth = 16;
    HostInterface host(dev, kQueues, kDepth, Mode::kReAllocate);
    RetryPolicy rp;
    rp.commandTimeout = ticks::fromMs(2);
    rp.maxRequeues = 2;
    rp.backoffBase = ticks::fromUs(50);
    rp.jitterSeed = seed;
    host.setRetryPolicy(rp);
    host.setAdmissionLimit(12);

    ssd::DeviceHealth *health = dev.ssd().health();
    ASSERT_NE(health, nullptr);

    // A retried command completes more than once (each aborted attempt
    // plus the final one), so the lost/hung-command contract is set
    // inclusion: every cid a submit call handed out must eventually be
    // reaped with some terminal status.  Completions are counted too:
    // each attempt posts exactly one.
    Rng rng(seed ^ 0xC4A05ull);
    std::array<std::set<std::uint16_t>, kQueues> submitted;
    std::array<std::set<std::uint16_t>, kQueues> reaped;
    std::size_t completions = 0;

    const auto drainAll = [&] {
        host.pump();
        for (std::uint16_t q = 0; q < kQueues; ++q) {
            for (; const auto c = host.reap(q); ++completions)
                reaped[q].insert(c->cid);
        }
    };
    const auto submitSome = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const auto q = static_cast<std::uint16_t>(rng.below(kQueues));
            const std::uint64_t roll = rng.below(100);
            std::optional<std::uint16_t> cid;
            if (roll < 45) {
                cid = host.submitWrite(
                    q, static_cast<nvme::Lpn>(rng.below(32)));
            } else if (roll < 80) {
                cid = host.submitRead(
                    q, static_cast<nvme::Lpn>(rng.below(kPreloadedLpns)));
            } else if (roll < 90) {
                nvme::Formula f;
                const auto a = static_cast<nvme::Lpn>(rng.below(8));
                f.terms.push_back(nvme::Formula::Term{
                    nvme::OperandRef::logical(a, 1),
                    nvme::OperandRef::logical(a + 8, 1),
                    flash::BitwiseOp::kXor});
                cid = host.submitFormula(q, f);
            } else {
                cid = host.submitFlush(q);
            }
            if (cid)
                submitted[q].insert(*cid);
        }
    };

    // Phase 1: healthy baseline.
    for (int round = 0; round < 4; ++round) {
        submitSome(8);
        drainAll();
    }
    EXPECT_EQ(health->state(), ssd::HealthState::kHealthy)
        << "baseline workload must not degrade the device";

    // Phase 2: the storm.  The seeded schedule supplies correlated
    // bursts; one always-failing plane guarantees block retirements so
    // every seed actually exercises degradation.
    for (const ssd::FaultSpec &f : ssd::FaultInjector::stormSchedule(
             cfg.geometry, seed, ssd::StormConfig{}))
        dev.ssd().injectFault(f);
    ssd::FaultSpec hot;
    hot.cls = ssd::FaultClass::kProgramFailure;
    hot.plane = static_cast<flash::PlaneIndex>(
        rng.below(cfg.geometry.planesTotal()));
    hot.failPeriod = 1;
    hot.onset = 0;
    dev.ssd().injectFault(hot);

    for (int round = 0; round < 12; ++round) {
        submitSome(12);
        drainAll();
    }
    EXPECT_GE(health->maxState(), ssd::HealthState::kDegraded)
        << "a storm this size must at least degrade the device";

    // Phase 3: the storm passes; transient faults lift, permanent
    // damage (none in a storm schedule) would stay.  A quiet read +
    // flush trickle advances simulated time until the budget decays
    // and the machine steps back to healthy.
    dev.ssd().clearTransientFaults();
    int quiet = 0;
    for (; health->state() != ssd::HealthState::kHealthy && quiet < 500;
         ++quiet) {
        if (const auto cid = host.submitRead(
                0, static_cast<nvme::Lpn>(rng.below(kPreloadedLpns))))
            submitted[0].insert(*cid);
        if (const auto cid = host.submitFlush(1))
            submitted[1].insert(*cid);
        drainAll();
    }
    EXPECT_EQ(health->state(), ssd::HealthState::kHealthy)
        << "the device must return to healthy after the storm ("
        << quiet << " quiet rounds, pressure " << health->pressure()
        << ")";

    // Robustness contract: nothing submitted ever vanished or hung.
    drainAll();
    std::size_t accepted = 0;
    for (const auto &cids : submitted)
        accepted += cids.size();
    EXPECT_EQ(completions, accepted + host.requeues())
        << "every attempt posts exactly one completion; a full CQ must "
           "hold, not drop";
    for (std::uint16_t q = 0; q < kQueues; ++q) {
        std::vector<std::uint16_t> lost;
        for (const std::uint16_t cid : submitted[q])
            if (reaped[q].count(cid) == 0)
                lost.push_back(cid);
        EXPECT_TRUE(lost.empty())
            << "queue " << q << ": " << lost.size() << " of "
            << submitted[q].size()
            << " accepted commands never reached a terminal completion "
            << "(first lost cid " << lost.front() << ")";
    }
    EXPECT_EQ(host.pump(), 0u) << "no work left behind";

    // Transitions moved one step at a time and never mid-cut; the
    // device-wide audit (ftl/sched/rain/media/health) is clean.
    const auto &ts = health->transitions();
    EXPECT_GE(ts.size(), 2u) << "up into the storm and back down";
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const int step = static_cast<int>(ts[i].to) -
                         static_cast<int>(ts[i].from);
        EXPECT_TRUE(step == 1 || step == -1) << "transition " << i;
        EXPECT_FALSE(ts[i].powerLost) << "transition " << i;
    }
    const InvariantReport audit = dev.ssd().auditInvariants();
    EXPECT_TRUE(audit.ok()) << audit.describe();
}

void
runShard(std::uint64_t first, std::uint64_t last)
{
    for (std::uint64_t seed = first; seed <= last; ++seed)
        runChaosSeed(seed);
}

TEST(ChaosSoak, Seeds00to15) { runShard(0, 15); }
TEST(ChaosSoak, Seeds16to31) { runShard(16, 31); }
TEST(ChaosSoak, Seeds32to47) { runShard(32, 47); }
TEST(ChaosSoak, Seeds48to63) { runShard(48, 63); }

} // namespace
} // namespace parabit::core
