/**
 * @file
 * FaultInjector unit tests: determinism of the derived schedule, query
 * semantics per fault class, and the plane-level wiring through
 * SsdDevice (dead flags, stuck bitlines, FTL retirement).
 */

#include <gtest/gtest.h>

#include <string>

#include "ssd/fault_injector.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

flash::FlashGeometry
tinyGeom()
{
    return flash::FlashGeometry::tiny();
}

flash::PhysPageAddr
addrInPlane(const flash::FlashGeometry &g, PlaneIndex p,
            std::uint32_t block = 0, std::uint32_t wl = 0, bool msb = false)
{
    const PlaneCoord c = planeCoord(g, p);
    flash::PhysPageAddr a;
    a.channel = c.channel;
    a.chip = c.chip;
    a.die = c.die;
    a.plane = c.plane;
    a.block = block;
    a.wordline = wl;
    a.msb = msb;
    return a;
}

TEST(FaultInjector, ElevatedRberMultipliesOnlyMatchingRegion)
{
    FaultInjector inj(tinyGeom(), 42);
    FaultSpec s;
    s.cls = FaultClass::kElevatedRber;
    s.plane = 2;
    s.block = 3;
    s.rberMultiplier = 50.0;
    inj.addFault(s);

    const auto g = tinyGeom();
    EXPECT_DOUBLE_EQ(inj.rberMultiplier(addrInPlane(g, 2, 3)), 50.0);
    EXPECT_DOUBLE_EQ(inj.rberMultiplier(addrInPlane(g, 2, 4)), 1.0);
    EXPECT_DOUBLE_EQ(inj.rberMultiplier(addrInPlane(g, 1, 3)), 1.0);

    // Whole-plane fault stacks multiplicatively on the block fault.
    FaultSpec w = s;
    w.block.reset();
    w.rberMultiplier = 2.0;
    inj.addFault(w);
    EXPECT_DOUBLE_EQ(inj.rberMultiplier(addrInPlane(g, 2, 3)), 100.0);
    EXPECT_DOUBLE_EQ(inj.rberMultiplier(addrInPlane(g, 2, 4)), 2.0);
}

TEST(FaultInjector, StuckBitlinePositionsAreSeedDeterministic)
{
    FaultSpec s;
    s.cls = FaultClass::kStuckBitline;
    s.plane = 1;
    s.stuckCount = 5;
    s.stuckValue = true;

    FaultInjector a(tinyGeom(), 7), b(tinyGeom(), 7), c(tinyGeom(), 8);
    a.addFault(s);
    b.addFault(s);
    c.addFault(s);

    EXPECT_EQ(a.stuckBitlines(1), b.stuckBitlines(1));
    EXPECT_NE(a.stuckBitlines(1), c.stuckBitlines(1));
    EXPECT_EQ(a.stuckBitlines(1).size(), 5u);
    EXPECT_TRUE(a.stuckBitlines(0).empty());
    for (const auto &sb : a.stuckBitlines(1)) {
        EXPECT_LT(sb.bitline, tinyGeom().pageBits());
        EXPECT_TRUE(sb.value);
    }
}

TEST(FaultInjector, ProgramFailurePeriodicSchedule)
{
    FaultInjector inj(tinyGeom(), 1);
    FaultSpec s;
    s.cls = FaultClass::kProgramFailure;
    s.plane = 0;
    s.failPeriod = 3;
    s.onset = 2;
    inj.addFault(s);

    const auto a = addrInPlane(tinyGeom(), 0);
    // Attempts 1,2 succeed (onset); then every 3rd fails: 5, 8, ...
    std::vector<bool> seen;
    for (int i = 0; i < 8; ++i)
        seen.push_back(inj.programShouldFail(a));
    const std::vector<bool> expect = {false, false, false, false,
                                      true,  false, false, true};
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(inj.programFailuresInjected(), 2u);
    // Other planes are untouched.
    EXPECT_FALSE(inj.programShouldFail(addrInPlane(tinyGeom(), 3)));
}

TEST(FaultInjector, DeadChipKillsAllItsPlanes)
{
    const auto g = tinyGeom();
    FaultInjector inj(g, 3);
    FaultSpec s;
    s.cls = FaultClass::kDeadChip;
    s.plane = 0;
    inj.addFault(s);

    const std::uint32_t per_chip = g.diesPerChip * g.planesPerDie;
    for (PlaneIndex p = 0; p < g.planesTotal(); ++p)
        EXPECT_EQ(inj.planeDead(p), p < per_chip) << "plane " << p;
}

TEST(FaultInjector, RandomScheduleIsReproducible)
{
    const auto g = tinyGeom();
    const auto s1 = FaultInjector::randomSchedule(g, 99, 12);
    const auto s2 = FaultInjector::randomSchedule(g, 99, 12);
    const auto s3 = FaultInjector::randomSchedule(g, 100, 12);
    ASSERT_EQ(s1.size(), 12u);
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1, s3);
    for (const auto &f : s1)
        EXPECT_LT(f.plane, g.planesTotal());
}

TEST(FaultInjector, FingerprintTracksScheduleAndSeed)
{
    const auto g = tinyGeom();
    const auto sched = FaultInjector::randomSchedule(g, 5, 6);

    FaultInjector a(g, 11), b(g, 11), c(g, 12);
    for (const auto &f : sched) {
        a.addFault(f);
        b.addFault(f);
        c.addFault(f);
    }
    EXPECT_EQ(a.scheduleFingerprint(), b.scheduleFingerprint());
    // A different injector seed draws different stuck positions, so the
    // fingerprint must move (the schedule contains stuck faults with
    // overwhelming probability; guard in case it does not).
    bool has_stuck = false;
    for (const auto &f : sched)
        has_stuck |= f.cls == FaultClass::kStuckBitline;
    if (has_stuck)
        EXPECT_NE(a.scheduleFingerprint(), c.scheduleFingerprint());

    // Registering one more fault changes the fingerprint.
    const std::uint64_t before = a.scheduleFingerprint();
    FaultSpec extra;
    extra.cls = FaultClass::kDeadPlane;
    extra.plane = 1;
    a.addFault(extra);
    EXPECT_NE(a.scheduleFingerprint(), before);
}

TEST(FaultInjector, FaultClassNamesAreExhaustive)
{
    // Every enumerator must render a real name; "?" would mean a class
    // was added without updating faultClassName() (the verify tool lints
    // the switch, this guards the runtime behaviour).
    for (int c = 0; c <= static_cast<int>(FaultClass::kPowerLoss); ++c) {
        const char *name = faultClassName(static_cast<FaultClass>(c));
        EXPECT_STRNE(name, "?") << "class " << c;
        EXPECT_GT(std::string(name).size(), 1u);
    }
    EXPECT_STREQ(faultClassName(FaultClass::kPowerLoss), "power-loss");
}

TEST(FaultInjector, PowerCutFiresAfterOnsetBoundaries)
{
    FaultInjector inj(tinyGeom(), 21);
    FaultSpec s;
    s.cls = FaultClass::kPowerLoss;
    s.onset = 3; // three boundaries complete, the fourth op is cut
    s.cutMidProgram = false;
    inj.addFault(s);

    EXPECT_EQ(inj.powerCutOnOp(false), PowerCut::kNone);
    EXPECT_EQ(inj.powerCutOnOp(true), PowerCut::kNone);
    EXPECT_EQ(inj.powerCutOnOp(false), PowerCut::kNone);
    EXPECT_FALSE(inj.powerLost());
    EXPECT_EQ(inj.powerCutOnOp(false), PowerCut::kBeforeOp);
    EXPECT_TRUE(inj.powerLost());
    // Power stays down: every later boundary is refused.
    EXPECT_EQ(inj.powerCutOnOp(true), PowerCut::kBeforeOp);
    EXPECT_EQ(inj.powerCutOnOp(false), PowerCut::kBeforeOp);
}

TEST(FaultInjector, PowerCutMidProgramOnlyTearsPrograms)
{
    FaultInjector inj(tinyGeom(), 21);
    FaultSpec s;
    s.cls = FaultClass::kPowerLoss;
    s.onset = 0;
    s.cutMidProgram = true; // pin mid-tPROG
    inj.addFault(s);

    // The cut boundary lands on a program: the wordline tears.
    EXPECT_EQ(inj.powerCutOnOp(true), PowerCut::kMidProgram);
    EXPECT_TRUE(inj.powerLost());

    // Same spec, but the boundary lands on a read/erase: a mid-program
    // cut is impossible, it degrades to before-op.
    FaultInjector inj2(tinyGeom(), 21);
    inj2.addFault(s);
    EXPECT_EQ(inj2.powerCutOnOp(false), PowerCut::kBeforeOp);
}

TEST(FaultInjector, PowerCutModeIsSeedDeterministicWhenUnpinned)
{
    FaultSpec s;
    s.cls = FaultClass::kPowerLoss;
    s.onset = 0; // cutMidProgram stays nullopt: drawn from the seed
    auto cut_of = [&](std::uint64_t seed) {
        FaultInjector inj(tinyGeom(), seed);
        inj.addFault(s);
        return inj.powerCutOnOp(true);
    };
    // Replays agree; across seeds both modes occur.
    bool saw_mid = false, saw_before = false;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        const PowerCut c = cut_of(seed);
        EXPECT_EQ(c, cut_of(seed)) << "seed " << seed;
        saw_mid |= c == PowerCut::kMidProgram;
        saw_before |= c == PowerCut::kBeforeOp;
    }
    EXPECT_TRUE(saw_mid);
    EXPECT_TRUE(saw_before);
}

TEST(FaultInjector, ClearPowerLossRearmsNothing)
{
    FaultInjector inj(tinyGeom(), 5);
    FaultSpec s;
    s.cls = FaultClass::kPowerLoss;
    s.onset = 0;
    s.cutMidProgram = false;
    inj.addFault(s);

    EXPECT_EQ(inj.powerCutOnOp(false), PowerCut::kBeforeOp);
    inj.clearPowerLoss();
    EXPECT_FALSE(inj.powerLost());
    // The fired fault is spent: power stays up indefinitely.
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(inj.powerCutOnOp(i % 2 == 0), PowerCut::kNone);

    // A freshly armed fault fires on its own schedule.
    FaultSpec again = s;
    again.onset = 1;
    inj.addFault(again);
    EXPECT_EQ(inj.powerCutOnOp(false), PowerCut::kNone);
    EXPECT_EQ(inj.powerCutOnOp(false), PowerCut::kBeforeOp);
    EXPECT_TRUE(inj.powerLost());
}

TEST(FaultInjector, StormScheduleIsReproducibleAndTransientOnly)
{
    const auto g = tinyGeom();
    StormConfig sc;
    sc.bursts = 3;
    sc.faultsPerBurst = 5;
    const auto s1 = FaultInjector::stormSchedule(g, 77, sc);
    const auto s2 = FaultInjector::stormSchedule(g, 77, sc);
    const auto s3 = FaultInjector::stormSchedule(g, 78, sc);
    ASSERT_EQ(s1.size(), 15u);
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1, s3);
    for (const auto &f : s1) {
        EXPECT_TRUE(faultClassTransient(f.cls))
            << "storms draw only transient classes ("
            << faultClassName(f.cls) << ")";
        EXPECT_LT(f.plane, g.planesTotal());
    }
}

TEST(FaultInjector, StormBurstsClusterOnFocusChips)
{
    // With full locality bias every burst lands entirely on one chip.
    const auto g = tinyGeom();
    StormConfig sc;
    sc.bursts = 2;
    sc.faultsPerBurst = 8;
    sc.localityBias = 1.0;
    const auto sched = FaultInjector::stormSchedule(g, 5, sc);
    const std::uint32_t per_chip = g.diesPerChip * g.planesPerDie;
    for (std::uint32_t b = 0; b < sc.bursts; ++b) {
        const std::uint32_t chip0 = sched[b * sc.faultsPerBurst].plane /
                                    per_chip;
        for (std::uint32_t i = 1; i < sc.faultsPerBurst; ++i)
            EXPECT_EQ(sched[b * sc.faultsPerBurst + i].plane / per_chip,
                      chip0)
                << "burst " << b << " fault " << i << " left its focus";
    }
}

TEST(FaultInjector, ClearTransientKeepsPermanentDamage)
{
    const auto g = tinyGeom();
    FaultInjector inj(g, 9);
    FaultSpec dead;
    dead.cls = FaultClass::kDeadPlane;
    dead.plane = 3;
    inj.addFault(dead);
    for (const auto &f : FaultInjector::stormSchedule(g, 9, StormConfig{}))
        inj.addFault(f);
    const std::size_t total = inj.faults().size();
    ASSERT_GT(total, 1u);

    const std::size_t removed = inj.clearTransient();
    EXPECT_EQ(removed, total - 1);
    ASSERT_EQ(inj.faults().size(), 1u);
    EXPECT_EQ(inj.faults()[0].cls, FaultClass::kDeadPlane);
    EXPECT_TRUE(inj.planeDead(3)) << "permanent damage survives the storm";
    // Transient queries all read clean now.
    for (PlaneIndex p = 0; p < g.planesTotal(); ++p) {
        EXPECT_TRUE(inj.stuckBitlines(p).empty());
        EXPECT_DOUBLE_EQ(inj.rberMultiplier(addrInPlane(g, p)), 1.0);
        if (p != 3)
            EXPECT_FALSE(inj.programShouldFail(addrInPlane(g, p)));
    }
    EXPECT_EQ(inj.clearTransient(), 0u) << "idempotent once cleared";
}

TEST(SsdDeviceFaults, ClearTransientFaultsRestoresPlaneState)
{
    SsdDevice dev(SsdConfig::tiny());
    FaultSpec stuck;
    stuck.cls = FaultClass::kStuckBitline;
    stuck.plane = 2;
    stuck.stuckCount = 3;
    dev.injectFault(stuck);
    FaultSpec dead;
    dead.cls = FaultClass::kDeadPlane;
    dead.plane = 1;
    dev.injectFault(dead);

    const PlaneCoord c2 = planeCoord(dev.geometry(), 2);
    ASSERT_EQ(dev.chipAt(c2.channel, c2.chip)
                  .plane(c2.die, c2.plane)
                  .stuckBitlines()
                  .size(),
              3u);

    EXPECT_EQ(dev.clearTransientFaults(), 1u);
    EXPECT_TRUE(dev.chipAt(c2.channel, c2.chip)
                    .plane(c2.die, c2.plane)
                    .stuckBitlines()
                    .empty())
        << "stuck bitlines lift with the storm";
    const PlaneCoord c1 = planeCoord(dev.geometry(), 1);
    EXPECT_FALSE(
        dev.chipAt(c1.channel, c1.chip).planeOperational(c1.die, c1.plane))
        << "a dead plane is permanent";
}

TEST(SsdDeviceFaults, InjectDeadPlaneMarksChipPlane)
{
    SsdDevice dev(SsdConfig::tiny());
    FaultSpec s;
    s.cls = FaultClass::kDeadPlane;
    s.plane = 1;
    dev.injectFault(s);

    const PlaneCoord c = planeCoord(dev.geometry(), 1);
    EXPECT_FALSE(dev.chipAt(c.channel, c.chip).planeOperational(c.die,
                                                                c.plane));
    const PlaneCoord c0 = planeCoord(dev.geometry(), 0);
    EXPECT_TRUE(dev.chipAt(c0.channel, c0.chip).planeOperational(c0.die,
                                                                 c0.plane));
}

TEST(SsdDeviceFaults, InjectStuckBitlinesReachesPlane)
{
    SsdDevice dev(SsdConfig::tiny());
    FaultSpec s;
    s.cls = FaultClass::kStuckBitline;
    s.plane = 2;
    s.stuckCount = 3;
    dev.injectFault(s);

    const PlaneCoord c = planeCoord(dev.geometry(), 2);
    const flash::Plane &pl =
        dev.chipAt(c.channel, c.chip).plane(c.die, c.plane);
    EXPECT_EQ(pl.stuckBitlines().size(), 3u);
    EXPECT_EQ(pl.stuckBitlines(), dev.faultInjector().stuckBitlines(2));
}

TEST(SsdDeviceFaults, ProgramFailureRetiresBlockAndRemaps)
{
    SsdConfig cfg = SsdConfig::tiny();
    SsdDevice dev(cfg);
    FaultSpec s;
    s.cls = FaultClass::kProgramFailure;
    s.plane = 0;
    s.failPeriod = 1; // every program into plane 0 fails
    dev.injectFault(s);

    // Write pages across the device; writes allocated to plane 0 must
    // retire its blocks and land elsewhere, never failing the host op.
    BitVector d(dev.geometry().pageBits());
    for (Lpn l = 0; l < 32; ++l) {
        std::vector<PhysOp> ops;
        EXPECT_TRUE(dev.ftl().writePage(l, &d, ops));
        const auto a = dev.ftl().lookup(l);
        ASSERT_TRUE(a.has_value());
        const PlaneIndex p = planeIndex(
            dev.geometry(), {a->channel, a->chip, a->die, a->plane});
        EXPECT_NE(p, 0u) << "LPN " << l << " mapped into the failing plane";
    }
    EXPECT_GT(dev.ftl().programFailures(), 0u);
    EXPECT_GT(dev.ftl().retiredBlocks(), 0u);
    // Data stays readable after the retirement storm.
    std::vector<PhysOp> ops;
    EXPECT_EQ(*dev.ftl().readPage(0, ops), d);
}

} // namespace
} // namespace parabit::ssd
