/**
 * @file
 * Die-level RAIN parity: stripe consistency across host writes, GC,
 * trim and refresh; rebuild of dead-die pages; the uncorrectable
 * two-failure case; and parity recomputation across a power cycle.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "ssd/media.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

SsdConfig
rainConfig()
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(1);
    cfg.media.scrubWordlinesPerPass = 512;
    cfg.rain.enabled = true;
    return cfg;
}

std::vector<BitVector>
seededPages(const SsdConfig &cfg, Lpn count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> ref;
    for (Lpn l = 0; l < count; ++l) {
        BitVector d(cfg.geometry.pageBits());
        for (std::size_t i = 0; i < d.size(); ++i)
            d.set(i, rng.chance(0.5));
        ref.push_back(std::move(d));
    }
    return ref;
}

Tick
writeAll(SsdDevice &dev, const std::vector<BitVector> &ref, Tick at)
{
    std::vector<const BitVector *> batch;
    for (const BitVector &d : ref)
        batch.push_back(&d);
    EXPECT_TRUE(dev.writePages(0, batch, at));
    return at;
}

/** Every mapped LPN's stripe must rebuild to exactly its payload. */
void
expectParityConsistent(SsdDevice &dev, const std::vector<BitVector> &ref)
{
    std::vector<PhysOp> ops;
    for (Lpn l = 0; l < static_cast<Lpn>(ref.size()); ++l) {
        const auto a = dev.ftl().lookup(l);
        ASSERT_TRUE(a.has_value()) << "lpn " << l;
        const auto rebuilt = dev.rain()->rebuildPage(*a);
        ASSERT_TRUE(rebuilt.has_value()) << "lpn " << l;
        ops.clear();
        EXPECT_EQ(*rebuilt, *dev.ftl().readPage(l, ops)) << "lpn " << l;
    }
}

TEST(Rain, StripeParityMatchesEveryPayloadAfterWrites)
{
    SsdConfig cfg = rainConfig();
    SsdDevice dev(cfg);
    ASSERT_NE(dev.rain(), nullptr);
    const auto ref = seededPages(cfg, 64, 0xA1);
    writeAll(dev, ref, 0);
    EXPECT_GT(dev.rain()->parityUpdates(), 0u);
    EXPECT_GT(dev.rain()->stripesTracked(), 0u);
    expectParityConsistent(dev, ref);
}

TEST(Rain, ParityStaysConsistentThroughOverwriteTrimAndGc)
{
    SsdConfig cfg = rainConfig();
    SsdDevice dev(cfg);
    auto ref = seededPages(cfg, 128, 0xB2);
    Tick now = writeAll(dev, ref, 0);

    // Overwrite half the LPNs a few times (invalidations + GC churn),
    // trim a few, then re-write them.
    Rng rng(3);
    for (int round = 0; round < 40; ++round) {
        for (Lpn l = 0; l < 64; ++l) {
            BitVector d(cfg.geometry.pageBits());
            for (std::size_t i = 0; i < d.size(); ++i)
                d.set(i, rng.chance(0.5));
            ref[static_cast<std::size_t>(l)] = d;
            EXPECT_TRUE(
                dev.writePages(l, {&ref[static_cast<std::size_t>(l)]}, now));
        }
    }
    for (Lpn l = 100; l < 110; ++l)
        ASSERT_TRUE(dev.ftl().trim(l));
    for (Lpn l = 100; l < 110; ++l)
        EXPECT_TRUE(
            dev.writePages(l, {&ref[static_cast<std::size_t>(l)]}, now));

    EXPECT_GT(dev.ftl().gcRuns(), 0u) << "churn should have forced GC";
    expectParityConsistent(dev, ref);
}

TEST(Rain, RebuildRecoversDeadDiePagesBitExactly)
{
    SsdConfig cfg = rainConfig();
    SsdDevice dev(cfg);
    const auto ref = seededPages(cfg, 96, 0xC3);
    const Tick t0 = writeAll(dev, ref, 0);

    // Kill channel 0 / chip 1's die (planes 2 and 3 in flat order).
    FaultSpec spec;
    spec.cls = FaultClass::kDieFail;
    spec.plane = 2;
    dev.injectFault(spec);

    std::size_t dead_pages = 0;
    for (Lpn l = 0; l < 96; ++l) {
        const auto a = dev.ftl().lookup(l);
        ASSERT_TRUE(a.has_value());
        if (dev.planeAlive(*a))
            continue;
        ++dead_pages;
        const auto rebuilt = dev.rain()->rebuildPage(*a);
        ASSERT_TRUE(rebuilt.has_value()) << "lpn " << l;
        EXPECT_EQ(*rebuilt, ref[static_cast<std::size_t>(l)])
            << "lpn " << l;
        EXPECT_TRUE(dev.repairPage(l, t0)) << "lpn " << l;
        EXPECT_TRUE(dev.ftl().pageAccessible(l));
    }
    EXPECT_GT(dead_pages, 0u) << "striping must have hit the dead die";
    EXPECT_GE(dev.rain()->rebuildsSucceeded(), dead_pages);

    // After repair everything reads back through the normal path.
    std::vector<BitVector> got;
    dev.readPages(0, 96, &got, t0);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], ref[i]) << "lpn " << i;
}

TEST(Rain, ScrubPassRepairsDeadDiePagesInBackground)
{
    SsdConfig cfg = rainConfig();
    SsdDevice dev(cfg);
    const auto ref = seededPages(cfg, 160, 0xD4);
    Tick now = writeAll(dev, ref, 0);

    FaultSpec spec;
    spec.cls = FaultClass::kDieFail;
    spec.plane = 2;
    dev.injectFault(spec);

    // Patrol passes find the dead-die wordlines and repair them.
    for (int round = 0; round < 8; ++round)
        now = dev.pumpMedia(dev.media()->nextPassAt() + 1);

    EXPECT_GT(dev.media()->repairs(), 0u);
    EXPECT_EQ(dev.media()->uncorrectable(), 0u);
    for (Lpn l = 0; l < 160; ++l) {
        const auto a = dev.ftl().lookup(l);
        ASSERT_TRUE(a.has_value());
        if (!dev.planeAlive(*a)) {
            // Still on the dead die: must be in a not-yet-patrolled
            // open block; on-demand repair covers those.
            EXPECT_TRUE(dev.repairPage(l, now));
        }
    }
    std::vector<BitVector> got;
    dev.readPages(0, 160, &got, now);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], ref[i]) << "lpn " << i;
}

TEST(Rain, SecondFailureInStripeIsUncorrectable)
{
    SsdConfig cfg = rainConfig();
    SsdDevice dev(cfg);
    const auto ref = seededPages(cfg, 64, 0xE5);
    writeAll(dev, ref, 0);

    // Tiny geometry: each channel has two dies (2 chips x 1 die), so a
    // stripe has two members — killing both dies of channel 0 leaves
    // nothing to rebuild from.
    FaultSpec a;
    a.cls = FaultClass::kDieFail;
    a.plane = 0;
    dev.injectFault(a);
    FaultSpec b;
    b.cls = FaultClass::kDieFail;
    b.plane = 2;
    dev.injectFault(b);

    bool saw_uncorrectable = false;
    for (Lpn l = 0; l < 64; ++l) {
        const auto loc = dev.ftl().lookup(l);
        ASSERT_TRUE(loc.has_value());
        if (dev.planeAlive(*loc))
            continue;
        const bool partner_present =
            !dev.rain()->rebuildPage(*loc).has_value();
        if (partner_present) {
            saw_uncorrectable = true;
            EXPECT_FALSE(dev.repairPage(l, 0));
        }
    }
    EXPECT_TRUE(saw_uncorrectable);
    EXPECT_GT(dev.rain()->rebuildsFailed(), 0u);
}

TEST(Rain, ParityRecomputedAcrossPowerCycle)
{
    SsdConfig cfg = rainConfig();
    cfg.recovery.enabled = true;
    SsdDevice dev(cfg);
    const auto ref = seededPages(cfg, 64, 0xF6);
    Tick now = writeAll(dev, ref, 0);

    const RecoveryReport rep = dev.powerCycle(now);
    EXPECT_TRUE(rep.recovered);
    expectParityConsistent(dev, ref);

    // And the recomputed parity still powers a real rebuild.
    FaultSpec spec;
    spec.cls = FaultClass::kDieFail;
    spec.plane = 0;
    dev.injectFault(spec);
    bool repaired = false;
    for (Lpn l = 0; l < 64 && !repaired; ++l) {
        const auto a = dev.ftl().lookup(l);
        ASSERT_TRUE(a.has_value());
        if (!dev.planeAlive(*a))
            repaired = dev.repairPage(l, now);
    }
    EXPECT_TRUE(repaired);
}

TEST(Rain, DestageProgramsAreBookedWhenCharged)
{
    SsdConfig cfg = rainConfig();
    cfg.rain.chargeParityPrograms = true;
    SsdDevice dev(cfg);
    const auto ref = seededPages(cfg, 32, 0x17);
    writeAll(dev, ref, 0);
    EXPECT_GT(dev.rain()->destagePrograms(), 0u);

    SsdConfig quiet = rainConfig();
    quiet.rain.chargeParityPrograms = false;
    SsdDevice dev2(quiet);
    writeAll(dev2, ref, 0);
    EXPECT_EQ(dev2.rain()->destagePrograms(), 0u);
    // Parity still functionally consistent without the booked traffic.
    expectParityConsistent(dev2, ref);
}

} // namespace
} // namespace parabit::ssd
