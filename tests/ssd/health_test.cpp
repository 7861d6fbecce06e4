/**
 * @file
 * Device health state machine: config validation, deterministic
 * hysteresis-guarded transitions on the standalone machine, and the
 * host-visible policy effects (write-protected, formula shedding)
 * through the full queue path.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/health.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

// ---------------------------------------------------------------------
// Config validation.

TEST(HealthConfigValidation, DisabledConfigIsInertWhateverTheKnobs)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.health.enabled = false;
    cfg.health.degradedThreshold = -1.0; // nonsense, but inert
    cfg.health.hysteresis = 7.0;
    cfg.health.minDwell = 0;
    EXPECT_EQ(validateHealthConfig(cfg), nullptr);
}

TEST(HealthConfigValidation, DefaultEnabledConfigIsValid)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.health.enabled = true;
    EXPECT_EQ(validateHealthConfig(cfg), nullptr);
}

TEST(HealthConfigValidation, RejectsUnorderedThresholds)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.health.enabled = true;
    cfg.health.readOnlyThreshold = cfg.health.failedThreshold + 1.0;
    const char *err = validateHealthConfig(cfg);
    ASSERT_NE(err, nullptr);
    EXPECT_NE(std::string(err).find("strictly ordered"), std::string::npos);

    cfg = SsdConfig::tiny();
    cfg.health.enabled = true;
    cfg.health.degradedThreshold = 0.0;
    EXPECT_NE(validateHealthConfig(cfg), nullptr);
}

TEST(HealthConfigValidation, RejectsDegenerateHysteresisAndClocks)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.health.enabled = true;
    cfg.health.hysteresis = 0.0;
    const char *err = validateHealthConfig(cfg);
    ASSERT_NE(err, nullptr);
    EXPECT_NE(std::string(err).find("hysteresis"), std::string::npos);

    cfg = SsdConfig::tiny();
    cfg.health.enabled = true;
    cfg.health.pressureHalfLife = 0;
    ASSERT_NE(validateHealthConfig(cfg), nullptr);

    cfg = SsdConfig::tiny();
    cfg.health.enabled = true;
    cfg.health.minDwell = 0;
    ASSERT_NE(validateHealthConfig(cfg), nullptr);

    cfg = SsdConfig::tiny();
    cfg.health.enabled = true;
    cfg.health.degradedScrubDivisor = 0;
    ASSERT_NE(validateHealthConfig(cfg), nullptr);
}

TEST(HealthConfigValidation, DeviceConstructionRejectsBrokenConfig)
{
    EXPECT_DEATH(
        {
            SsdConfig cfg = SsdConfig::tiny();
            cfg.health.enabled = true;
            cfg.health.hysteresis = 1.5;
            SsdDevice dev(cfg);
        },
        "hysteresis");
}

// ---------------------------------------------------------------------
// The standalone state machine.

HealthConfig
testMachineConfig()
{
    HealthConfig h;
    h.enabled = true;
    h.degradedThreshold = 4.0;
    h.readOnlyThreshold = 12.0;
    h.failedThreshold = 100.0;
    h.hysteresis = 0.25;
    h.pressureHalfLife = 100; // ticks; fast decay for the tests
    h.minDwell = 1000;
    return h;
}

TEST(DeviceHealthMachine, EscalatesAtThresholdOneStepAtATime)
{
    DeviceHealth h(testMachineConfig());
    EXPECT_EQ(h.state(), HealthState::kHealthy);
    h.noteUncorrectable(); // weight 4.0 == degradedThreshold
    EXPECT_EQ(h.state(), HealthState::kDegraded);
    ASSERT_EQ(h.transitions().size(), 1u);
    EXPECT_EQ(h.transitions()[0].from, HealthState::kHealthy);
    EXPECT_EQ(h.transitions()[0].to, HealthState::kDegraded);

    // A burst crossing two more thresholds still records single steps.
    for (int i = 0; i < 24; ++i)
        h.noteUncorrectable(); // pressure ~100 >= failedThreshold
    EXPECT_EQ(h.state(), HealthState::kFailed);
    ASSERT_EQ(h.transitions().size(), 3u);
    EXPECT_EQ(h.transitions()[1].to, HealthState::kReadOnly);
    EXPECT_EQ(h.transitions()[2].to, HealthState::kFailed);
    EXPECT_EQ(h.maxState(), HealthState::kFailed);
}

TEST(DeviceHealthMachine, DeEscalationWaitsForDwellAndHysteresis)
{
    DeviceHealth h(testMachineConfig());
    h.noteUncorrectable();
    ASSERT_EQ(h.state(), HealthState::kDegraded);

    // Pressure decays to ~nothing after 5 half-lives, clearing the
    // hysteresis bar (4.0 * 0.75 = 3.0), but 500 < minDwell: stay.
    h.pump(500);
    EXPECT_LT(h.pressure(), 3.0);
    EXPECT_EQ(h.state(), HealthState::kDegraded);

    // Past the dwell the same pressure steps the machine back down.
    h.pump(2000);
    EXPECT_EQ(h.state(), HealthState::kHealthy);
    EXPECT_EQ(h.maxState(), HealthState::kDegraded) << "peak is retained";
}

TEST(DeviceHealthMachine, HysteresisMarginBlocksDeEscalation)
{
    HealthConfig cfg = testMachineConfig();
    cfg.pressureHalfLife = ticks::fromMs(1000); // effectively no decay
    DeviceHealth h(cfg);
    h.noteUncorrectable(); // pressure 4.0 -> degraded
    ASSERT_EQ(h.state(), HealthState::kDegraded);
    // Dwell satisfied, but pressure (4.0) > 4.0 * (1 - 0.25): hold.
    h.pump(5000);
    EXPECT_EQ(h.state(), HealthState::kDegraded);
}

TEST(DeviceHealthMachine, FailedIsTerminal)
{
    DeviceHealth h(testMachineConfig());
    for (int i = 0; i < 30; ++i)
        h.noteUncorrectable();
    ASSERT_EQ(h.state(), HealthState::kFailed);
    h.pump(ticks::fromMs(10)); // decay to ~zero changes nothing
    EXPECT_EQ(h.state(), HealthState::kFailed);
    EXPECT_FALSE(h.admitRead());
    EXPECT_FALSE(h.admitWrite());
    EXPECT_FALSE(h.admitFormula());
}

TEST(DeviceHealthMachine, PolicyQueriesFollowTheState)
{
    DeviceHealth h(testMachineConfig());
    EXPECT_TRUE(h.admitWrite());
    EXPECT_TRUE(h.admitFormula());
    EXPECT_TRUE(h.admitRead());
    EXPECT_FALSE(h.backgroundThrottled());

    h.noteUncorrectable(); // -> degraded
    EXPECT_TRUE(h.admitWrite());
    EXPECT_FALSE(h.admitFormula()) << "degraded sheds computation first";
    EXPECT_TRUE(h.admitRead());
    EXPECT_TRUE(h.backgroundThrottled());

    h.noteUncorrectable();
    h.noteUncorrectable(); // pressure 12 -> read-only
    ASSERT_EQ(h.state(), HealthState::kReadOnly);
    EXPECT_FALSE(h.admitWrite());
    EXPECT_TRUE(h.admitRead());
}

TEST(DeviceHealthMachine, FrozenWhilePowerLost)
{
    DeviceHealth h(testMachineConfig());
    h.noteUncorrectable();
    ASSERT_EQ(h.state(), HealthState::kDegraded);
    const double p = h.pressure();

    h.setPowerLost(true);
    h.noteUncorrectable(); // ignored: the machine is frozen
    h.pump(ticks::fromMs(50));
    EXPECT_EQ(h.pressure(), p) << "no charge and no decay mid-cut";
    EXPECT_EQ(h.state(), HealthState::kDegraded);
    EXPECT_EQ(h.transitions().size(), 1u);

    h.setPowerLost(false);
    h.pump(ticks::fromMs(50));
    EXPECT_EQ(h.state(), HealthState::kHealthy) << "resumes after power";
    for (const HealthTransition &t : h.transitions())
        EXPECT_FALSE(t.powerLost);
}

TEST(DeviceHealthMachine, DeterministicAcrossIdenticalRuns)
{
    const auto run = [] {
        DeviceHealth h(testMachineConfig());
        Rng rng(0xFEED);
        for (int i = 0; i < 200; ++i) {
            if (rng.chance(0.3))
                h.noteUncorrectable();
            if (rng.chance(0.5))
                h.noteRefresh();
            h.pump(static_cast<Tick>(i) * 50);
        }
        return h.transitions();
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].to, b[i].to);
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].pressure, b[i].pressure);
    }
}

} // namespace
} // namespace parabit::ssd

// ---------------------------------------------------------------------
// Host-visible policy effects through the queue path.

namespace parabit::core {
namespace {

ssd::SsdConfig
healthyTinyConfig()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.health.enabled = true; // default thresholds: 8 / 24 / 96
    return cfg;
}

TEST(HostHealthPolicy, ReadOnlyDeviceRejectsWritesWithDistinctStatus)
{
    ParaBitDevice dev(healthyTinyConfig());
    dev.writeMeta(0, 1);
    ssd::DeviceHealth *h = dev.ssd().health();
    ASSERT_NE(h, nullptr);
    for (int i = 0; i < 6; ++i)
        h->noteUncorrectable(); // 6 * 4.0 = 24 -> read-only
    ASSERT_EQ(h->state(), ssd::HealthState::kReadOnly);

    HostInterface host(dev, 1, 8);
    // No served write could meet a zero target; a refused one is no
    // sample, however late the device gets to it.
    host.setSlo(OpClass::kWrite, obs::SloConfig{.target = 0});
    ASSERT_TRUE(host.submitWrite(0, 1));
    ASSERT_TRUE(host.submitRead(0, 0));
    dev.readData(0, 1); // the device clock runs ahead of the submissions
    EXPECT_EQ(host.pump(), 2u);

    const auto w = host.reap(0);
    ASSERT_TRUE(w);
    EXPECT_EQ(w->status, nvme::kWriteProtected);
    EXPECT_GT(w->latency, Tick{0});
    const auto r = host.reap(0);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->ok()) << "reads keep flowing in read-only";
    EXPECT_EQ(host.writeRejects(), 1u);
    EXPECT_EQ(h->admittedWritesSinceEntry(), 0u);
    EXPECT_EQ(host.slo(OpClass::kWrite)->violations(), 0u)
        << "an admission refusal is never an SLO sample";
}

TEST(HostHealthPolicy, DegradedDeviceShedsFormulasButServesIo)
{
    ParaBitDevice dev(healthyTinyConfig());
    const ssd::SsdConfig &cfg = dev.ssd().config();
    Rng rng(7);
    BitVector x(cfg.geometry.pageBits()), y(cfg.geometry.pageBits());
    for (std::size_t i = 0; i < x.size(); ++i) {
        x.set(i, rng.chance(0.5));
        y.set(i, rng.chance(0.5));
    }
    dev.writeData(0, {x});
    dev.writeData(10, {y});

    ssd::DeviceHealth *h = dev.ssd().health();
    ASSERT_NE(h, nullptr);
    h->noteUncorrectable();
    h->noteUncorrectable(); // 8.0 -> degraded
    ASSERT_EQ(h->state(), ssd::HealthState::kDegraded);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kXor});
    ASSERT_TRUE(host.submitFormula(0, f));
    ASSERT_TRUE(host.submitWrite(0, 20));
    host.pump();

    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_EQ(c1->status, nvme::kAdmissionShed)
        << "a degraded device sheds computation with its own status";
    EXPECT_TRUE(c1->pages.empty());
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_TRUE(c2->ok()) << "plain writes still admitted while degraded";
    EXPECT_EQ(host.sheds(), 1u);

    // The watchdog is a host timer: a refusal that lands past the
    // deadline is aborted there like any late completion, and the
    // requeued formula is refused again.  Each refusal is a shed.
    host.setRetryPolicy(RetryPolicy{.commandTimeout = 1});
    ASSERT_TRUE(host.submitFormula(0, f));
    ASSERT_TRUE(dev.writeData(30, {x})); // the device clock runs ahead
    ASSERT_EQ(h->state(), ssd::HealthState::kDegraded);
    host.pump();
    const auto c3 = host.reap(0);
    ASSERT_TRUE(c3);
    EXPECT_EQ(c3->status, nvme::kCommandAborted);
    EXPECT_EQ(c3->latency, Tick{1}) << "aborted at the deadline";
    const auto c4 = host.reap(0);
    ASSERT_TRUE(c4);
    EXPECT_EQ(c4->status, nvme::kAdmissionShed);
    EXPECT_FALSE(host.reap(0).has_value());
    EXPECT_EQ(host.sheds(), 3u);
}

TEST(HostHealthPolicy, MediaErrorsChargeTheBudgetForEveryClass)
{
    // A read and a formula whose operand sits on a dead plane both
    // complete kUnrecoveredReadError, and each charges the budget.
    for (const OpClass cls : {OpClass::kRead, OpClass::kFormula}) {
        SCOPED_TRACE(opClassName(cls));
        ParaBitDevice dev(healthyTinyConfig());
        const ssd::SsdConfig &cfg = dev.ssd().config();
        Rng rng(11);
        std::vector<BitVector> data;
        for (int p = 0; p < 2; ++p) {
            BitVector v(cfg.geometry.pageBits());
            for (std::size_t i = 0; i < v.size(); ++i)
                v.set(i, rng.chance(0.5));
            data.push_back(std::move(v));
        }
        dev.writeData(0, data);
        const auto victim = dev.ssd().ftl().lookup(1);
        ASSERT_TRUE(victim.has_value());
        ssd::FaultSpec dead;
        dead.cls = ssd::FaultClass::kDeadPlane;
        dead.plane = ssd::planeIndex(
            dev.ssd().geometry(),
            {victim->channel, victim->chip, victim->die, victim->plane});
        dev.ssd().injectFault(dead);
        ssd::DeviceHealth *h = dev.ssd().health();
        ASSERT_NE(h, nullptr);
        ASSERT_EQ(h->pressure(), 0.0);

        HostInterface host(dev, 1, 8, Mode::kReAllocate);
        if (cls == OpClass::kRead) {
            ASSERT_TRUE(host.submitRead(0, 1));
        } else {
            nvme::Formula f;
            f.terms.push_back(nvme::Formula::Term{
                nvme::OperandRef::logical(0, 1),
                nvme::OperandRef::logical(1, 1), flash::BitwiseOp::kXor});
            ASSERT_TRUE(host.submitFormula(0, f));
        }
        host.pump();
        const auto c = host.reap(0);
        ASSERT_TRUE(c);
        EXPECT_EQ(c->status, nvme::kUnrecoveredReadError);
        EXPECT_EQ(h->pressure(), cfg.health.weightUncorrectable);
    }
}

TEST(HostHealthPolicy, AdmissionLimitShedsFastWithImmediateCompletion)
{
    ParaBitDevice dev(healthyTinyConfig());
    dev.writeMeta(0, 1);
    HostInterface host(dev, 1, 8);
    host.setAdmissionLimit(2);

    ASSERT_TRUE(host.submitRead(0, 0));
    ASSERT_TRUE(host.submitRead(0, 0));
    const auto shed = host.submitRead(0, 0); // third: over the cap
    ASSERT_TRUE(shed) << "a shed command still yields a reapable cid";

    // The shed completion is already in the CQ, before the pump runs.
    const auto c0 = host.reap(0);
    ASSERT_TRUE(c0);
    EXPECT_EQ(c0->cid, *shed);
    EXPECT_EQ(c0->status, nvme::kAdmissionShed);
    EXPECT_EQ(c0->latency, Tick{0}) << "shedding is immediate";

    EXPECT_EQ(host.pump(), 2u);
    EXPECT_TRUE(host.reap(0)->ok());
    EXPECT_TRUE(host.reap(0)->ok());
    EXPECT_EQ(host.sheds(), 1u);
}

} // namespace
} // namespace parabit::core
