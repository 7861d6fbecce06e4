/**
 * @file
 * Background media management: disturb/retention wear growth, the
 * patrol scrubber's refresh decisions, the new fault classes, and the
 * config validation that gates the subsystem.
 *
 * Layout note: the tiny geometry blocks hold 8 wordlines (16 pages) and
 * the scrubber skips open (write-cursor) blocks, so tests that want the
 * patrol to see data write 160 logical pages — 20 per plane, closing
 * every plane's first block and parking the cursor in the second.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "flash/read_retry.hpp"
#include "ssd/media.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

constexpr Lpn kFillPages = 160;

SsdConfig
mediaConfig()
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(1);
    cfg.media.scrubWordlinesPerPass = 512; // one full sweep per pass
    return cfg;
}

/** Write @p count seeded pages; returns the reference payloads. */
std::vector<BitVector>
fillPages(SsdDevice &dev, Lpn count, Tick &now)
{
    Rng rng(17);
    std::vector<BitVector> ref;
    std::vector<const BitVector *> batch;
    for (Lpn l = 0; l < count; ++l) {
        BitVector d(dev.geometry().pageBits());
        for (std::size_t i = 0; i < d.size(); ++i)
            d.set(i, rng.chance(0.5));
        ref.push_back(std::move(d));
    }
    for (const BitVector &d : ref)
        batch.push_back(&d);
    EXPECT_TRUE(dev.writePages(0, batch, now));
    return ref;
}

TEST(MediaConfigValidation, RainRequiresRunningScrubber)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.rain.enabled = true;
    EXPECT_NE(validateMediaConfig(cfg), nullptr) << "scrubber disabled";

    cfg.media.enabled = true;
    cfg.media.scrubInterval = 0;
    EXPECT_NE(validateMediaConfig(cfg), nullptr) << "scrub interval 0";

    cfg.media.scrubInterval = ticks::fromMs(1);
    EXPECT_EQ(validateMediaConfig(cfg), nullptr);
}

TEST(MediaConfigValidation, ScrubBatchMustBeNonzero)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubWordlinesPerPass = 0;
    EXPECT_NE(validateMediaConfig(cfg), nullptr);
    cfg.media.scrubWordlinesPerPass = 1;
    EXPECT_EQ(validateMediaConfig(cfg), nullptr);
}

TEST(MediaFaults, NewClassesHaveNames)
{
    EXPECT_STREQ(faultClassName(FaultClass::kReadDisturbHot),
                 "read-disturb-hot");
    EXPECT_STREQ(faultClassName(FaultClass::kRetentionLoss),
                 "retention-loss");
    EXPECT_STREQ(faultClassName(FaultClass::kDieFail), "die-fail");
}

TEST(MediaFaults, DieFailKillsEveryPlaneOfTheDie)
{
    const flash::FlashGeometry g = flash::FlashGeometry::tiny();
    ASSERT_EQ(g.planesPerDie, 2u);
    FaultInjector inj(g, 7);
    FaultSpec spec;
    spec.cls = FaultClass::kDieFail;
    spec.plane = 2; // second die's first plane
    inj.addFault(spec);
    EXPECT_FALSE(inj.planeDead(0));
    EXPECT_FALSE(inj.planeDead(1));
    EXPECT_TRUE(inj.planeDead(2));
    EXPECT_TRUE(inj.planeDead(3)) << "sibling plane of the same die";
    EXPECT_FALSE(inj.planeDead(4));
}

TEST(MediaFaults, DisturbAndRetentionMultipliersMatchRegion)
{
    const flash::FlashGeometry g = flash::FlashGeometry::tiny();
    FaultInjector inj(g, 7);
    FaultSpec hot;
    hot.cls = FaultClass::kReadDisturbHot;
    hot.plane = 0;
    hot.block = 3;
    hot.rberMultiplier = 8.0;
    inj.addFault(hot);
    FaultSpec leak;
    leak.cls = FaultClass::kRetentionLoss;
    leak.plane = 1;
    leak.rberMultiplier = 5.0;
    inj.addFault(leak);

    flash::PhysPageAddr a; // plane 0 = channel 0, chip 0, die 0, plane 0
    a.block = 3;
    EXPECT_DOUBLE_EQ(inj.disturbMultiplier(a), 8.0);
    EXPECT_DOUBLE_EQ(inj.retentionMultiplier(a), 1.0);
    a.block = 2;
    EXPECT_DOUBLE_EQ(inj.disturbMultiplier(a), 1.0) << "other block";
    a.plane = 1;
    EXPECT_DOUBLE_EQ(inj.retentionMultiplier(a), 5.0);
    EXPECT_DOUBLE_EQ(inj.disturbMultiplier(a), 1.0);
}

TEST(MediaFaults, RandomScheduleNeverDrawsMediaClasses)
{
    // The legacy seeded schedules must stay bit-identical, so the new
    // classes are armed only explicitly via addFault().
    const auto specs = FaultInjector::randomSchedule(
        flash::FlashGeometry::tiny(), 0xFEED, 256);
    ASSERT_EQ(specs.size(), 256u);
    for (const FaultSpec &s : specs) {
        EXPECT_NE(s.cls, FaultClass::kReadDisturbHot);
        EXPECT_NE(s.cls, FaultClass::kRetentionLoss);
        EXPECT_NE(s.cls, FaultClass::kDieFail);
    }
}

TEST(MediaWear, ReadsChargeNeighborsAndGrowPrediction)
{
    const flash::FlashGeometry g = flash::FlashGeometry::tiny();
    flash::ErrorModelConfig ec; // non-ideal: paper-calibrated base rate
    ec.readDisturbFactor = 0.01;
    ec.retentionPerHour = 0.5;
    flash::Chip chip(g, true, ec, 1);
    const BitVector d(g.pageBits(), false);
    ASSERT_TRUE(chip.programPage({0, 0, 0, 0, false}, flash::makePayload(d)));
    ASSERT_TRUE(chip.programPage({0, 0, 0, 1, false}, flash::makePayload(d)));

    const double base = chip.predictedRber({0, 0, 0, 0, false});
    ASSERT_GT(base, 0.0);
    for (int i = 0; i < 100; ++i)
        (void)chip.readPage({0, 0, 0, 1, false}); // LSB read: 1 sense
    EXPECT_EQ(chip.wordlineDisturb({0, 0, 0, 0, false}), 100u);
    EXPECT_EQ(chip.wordlineDisturb({0, 0, 0, 1, false}), 0u)
        << "a read disturbs its neighbors, not itself";
    const double disturbed = chip.predictedRber({0, 0, 0, 0, false});
    EXPECT_NEAR(disturbed / base, 2.0, 1e-9) << "1 + 0.01 * 100";

    // Retention compounds multiplicatively on top of disturb.
    chip.setNow(ticks::fromSec(2 * 3600.0));
    const double aged = chip.predictedRber({0, 0, 0, 0, false});
    EXPECT_NEAR(aged / disturbed, 2.0, 1e-9) << "1 + 0.5/hr * 2 hr";
}

TEST(MediaWear, MsbReadChargesTwoSenses)
{
    const flash::FlashGeometry g = flash::FlashGeometry::tiny();
    flash::Chip chip(g, true, flash::ErrorModelConfig::ideal(), 1);
    const BitVector d(g.pageBits(), false);
    ASSERT_TRUE(chip.programPage({0, 0, 0, 1, false}, flash::makePayload(d)));
    ASSERT_TRUE(chip.programPage({0, 0, 0, 1, true}, flash::makePayload(d)));
    (void)chip.readPage({0, 0, 0, 1, true});
    EXPECT_EQ(chip.wordlineDisturb({0, 0, 0, 0, false}), 2u);
    EXPECT_EQ(chip.wordlineDisturb({0, 0, 0, 2, false}), 2u);
}

TEST(MediaWear, EraseResetsDisturb)
{
    const flash::FlashGeometry g = flash::FlashGeometry::tiny();
    flash::Chip chip(g, true, flash::ErrorModelConfig::ideal(), 1);
    const BitVector d(g.pageBits(), false);
    ASSERT_TRUE(chip.programPage({0, 0, 0, 1, false}, flash::makePayload(d)));
    (void)chip.readPage({0, 0, 0, 1, false});
    ASSERT_GT(chip.wordlineDisturb({0, 0, 0, 0, false}), 0u);
    ASSERT_TRUE(chip.eraseBlock(0, 0, 0));
    EXPECT_EQ(chip.wordlineDisturb({0, 0, 0, 0, false}), 0u);
}

TEST(MediaScrub, PassRunsOnScheduleAndScansValidPages)
{
    SsdConfig cfg = mediaConfig();
    SsdDevice dev(cfg);
    ASSERT_NE(dev.media(), nullptr);
    EXPECT_EQ(dev.rain(), nullptr);

    Tick now = 0;
    fillPages(dev, kFillPages, now); // pumps a pass at write completion

    EXPECT_GE(dev.media()->passes(), 1u);
    EXPECT_GT(dev.media()->wordlinesScanned(), 0u);
    EXPECT_GT(dev.media()->scrubReads(), 0u);
    EXPECT_EQ(dev.media()->uncorrectable(), 0u);

    // Not due again until the interval elapses.
    const std::uint64_t before = dev.media()->passes();
    dev.pumpMedia(dev.media()->nextPassAt() - 1);
    EXPECT_EQ(dev.media()->passes(), before);
    dev.pumpMedia(dev.media()->nextPassAt());
    EXPECT_EQ(dev.media()->passes(), before + 1);
}

TEST(MediaScrub, DisturbThresholdTriggersRefreshWithDataIntact)
{
    SsdConfig cfg = mediaConfig();
    cfg.media.refreshDisturbThreshold = 64;
    SsdDevice dev(cfg);

    Tick now = 0;
    const std::vector<BitVector> ref = fillPages(dev, kFillPages, now);

    // Hammer reads: every read charges its physical wordline neighbors,
    // so closed-block wordlines cross the 64-sense threshold and the
    // pass that follows each host batch refresh-relocates them.
    for (int round = 0; round < 100 && dev.media()->refreshes() == 0;
         ++round)
        now = dev.readPages(0, kFillPages, nullptr, now);

    EXPECT_GT(dev.media()->refreshes(), 0u);
    EXPECT_GT(dev.ftl().refreshPagesWritten(), 0u);
    EXPECT_EQ(dev.media()->refreshFailures(), 0u);
    EXPECT_EQ(dev.media()->uncorrectable(), 0u);

    // Every relocation preserved the payload bit-exactly.
    std::vector<BitVector> got;
    dev.readPages(0, kFillPages, &got, now);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(got[i], ref[i]) << "lpn " << i;
}

TEST(MediaFtl, RefreshWordlineMovesPagesAndResetsCounters)
{
    SsdConfig cfg = SsdConfig::tiny(); // scrubber not needed: direct call
    SsdDevice dev(cfg);
    Ftl &ftl = dev.ftl();

    // Fill enough that plane 0's first block closes: the refresh
    // destination (an open-block wordline) is then disjoint from the
    // wordlines the neighbor-read below charges.
    Tick now = 0;
    const std::vector<BitVector> ref = fillPages(dev, kFillPages, now);

    // lpns 0 and 8 share plane 0's first wordline (8-plane striping,
    // interleaved LSB/MSB order); lpn 16 is that plane's next wordline,
    // so reading it charges disturb into the first.
    const auto lsb = ftl.lookup(0);
    const auto msb = ftl.lookup(8);
    ASSERT_TRUE(lsb && msb);
    ASSERT_TRUE(lsb->sameWordline(*msb));
    std::vector<PhysOp> ops;
    for (int i = 0; i < 50; ++i)
        (void)ftl.readPage(16, ops);
    flash::Chip &chip = dev.chipAt(lsb->channel, lsb->chip);
    const flash::ChipPageAddr old_ca{lsb->die, lsb->plane, lsb->block,
                                     lsb->wordline, false};
    ASSERT_GE(chip.wordlineDisturb(old_ca), 50u);

    ops.clear();
    ASSERT_TRUE(ftl.refreshWordline(*lsb, ops));
    EXPECT_FALSE(ops.empty());
    EXPECT_EQ(ftl.refreshPagesWritten(), 2u);

    const auto lsb2 = ftl.lookup(0);
    const auto msb2 = ftl.lookup(8);
    ASSERT_TRUE(lsb2 && msb2);
    EXPECT_FALSE(lsb2->sameWordline(*lsb)) << "page must have moved";
    flash::Chip &chip2 = dev.chipAt(lsb2->channel, lsb2->chip);
    EXPECT_EQ(chip2.wordlineDisturb({lsb2->die, lsb2->plane, lsb2->block,
                                     lsb2->wordline, false}),
              0u)
        << "fresh wordline starts with a clean disturb counter";
    EXPECT_EQ(chip.pageState(old_ca), flash::PageState::kInvalid);

    ops.clear();
    EXPECT_EQ(*ftl.readPage(0, ops), ref[0]);
    EXPECT_EQ(*ftl.readPage(8, ops), ref[8]);
}

TEST(MediaFtl, RefreshKeepsParabitPairCoLocated)
{
    SsdConfig cfg = SsdConfig::tiny();
    SsdDevice dev(cfg);
    Ftl &ftl = dev.ftl();

    const BitVector x(cfg.geometry.pageBits(), false);
    const BitVector y(cfg.geometry.pageBits(), true);
    std::vector<PhysOp> ops;
    const auto pair = ftl.writePair(100, 101, flash::makePayload(x),
                                    flash::makePayload(y), ops);
    ASSERT_TRUE(pair.has_value());

    ops.clear();
    ASSERT_TRUE(ftl.refreshWordline(pair->lsb, ops));

    const auto a = ftl.lookup(100);
    const auto b = ftl.lookup(101);
    ASSERT_TRUE(a && b);
    EXPECT_TRUE(a->sameWordline(*b))
        << "refresh must move a ParaBit pair through writePair";
    EXPECT_FALSE(a->sameWordline(pair->lsb));
    EXPECT_FALSE(a->msb);
    EXPECT_TRUE(b->msb);
    ops.clear();
    EXPECT_EQ(*ftl.readPage(100, ops), x);
    EXPECT_EQ(*ftl.readPage(101, ops), y);
}

TEST(RetryLadder, MatchesHandComputedThresholds)
{
    // Budget: <= 0.1 expected voted errors on a 65536-bit page; the
    // per-bit per-execution error is q = 0.404 * 7 * p = 2.83 p.
    const double q = 0.404 * 7;
    const double p1 = 0.1 / (65536.0 * q); // 1-vote exact limit ~5.4e-7
    const double p3 =
        std::sqrt(0.1 / (3.0 * 65536.0)) / q; // 3-vote limit ~2.5e-4
    // The rungs are the derived limits rounded to a decade boundary
    // (5.4e-7 -> 1e-6 rung, 2.5e-4 -> 1e-4 rung): within half a decade.
    EXPECT_GE(flash::kRetryLadder[0].maxRber, p1);
    EXPECT_LE(flash::kRetryLadder[0].maxRber, 3.0 * p1);
    EXPECT_LE(flash::kRetryLadder[1].maxRber, p3);
    EXPECT_GE(flash::kRetryLadder[1].maxRber, p3 / 3.0);

    struct Case
    {
        double rber;
        int votes;
    };
    const Case table[] = {{0.0, 1},  {9.9e-7, 1}, {1e-6, 3}, {9.9e-5, 3},
                          {1e-4, 5}, {9.9e-3, 5}, {1e-2, 7}, {0.5, 7}};
    for (const Case &c : table)
        EXPECT_EQ(flash::recommendedVotes(c.rber), c.votes) << c.rber;
}

TEST(RetryLadder, RefreshDropsTheRecommendation)
{
    // A wordline pushed up the ladder by disturb wear falls back to the
    // bottom rungs once the scrubber relocates its pages.
    SsdConfig cfg = mediaConfig();
    cfg.errors = flash::ErrorModelConfig{}; // paper-calibrated base
    cfg.errors.readDisturbFactor = 10.0;    // aggressive, test-scale
    cfg.media.refreshRberThreshold = 1e-4;
    SsdDevice dev(cfg);

    Tick now = 0;
    fillPages(dev, kFillPages, now);
    std::vector<flash::PhysPageAddr> initial;
    for (Lpn l = 0; l < kFillPages; ++l)
        initial.push_back(*dev.ftl().lookup(l));

    for (int round = 0; round < 100 && dev.media()->refreshes() == 0;
         ++round)
        now = dev.readPages(0, kFillPages, nullptr, now);
    ASSERT_GT(dev.media()->refreshes(), 0u);

    // Every page the scrubber moved now predicts below the refresh
    // threshold, i.e. back down the retry ladder.
    std::size_t moved = 0;
    for (Lpn l = 0; l < kFillPages; ++l) {
        const auto a = dev.ftl().lookup(l);
        ASSERT_TRUE(a.has_value());
        if (a->sameWordline(initial[static_cast<std::size_t>(l)]))
            continue;
        ++moved;
        const double rber =
            dev.chipAt(a->channel, a->chip)
                .predictedRber(
                    {a->die, a->plane, a->block, a->wordline, a->msb});
        EXPECT_LT(rber, cfg.media.refreshRberThreshold);
        EXPECT_LE(flash::recommendedVotes(rber), 3);
    }
    EXPECT_GT(moved, 0u);
}

} // namespace
} // namespace parabit::ssd
