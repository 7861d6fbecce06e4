/**
 * @file
 * ParaBitDevice public-API tests: placement helpers, the device clock,
 * metadata-only mode, and misuse handling.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "nvme/parser.hpp"
#include "parabit/device.hpp"

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

TEST(ParaBitDevice, ClockAdvancesMonotonically)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    EXPECT_EQ(dev.now(), 0u);
    const auto d = pages(dev.ssd().config(), 2, 1);
    dev.writeData(0, d);
    const Tick t1 = dev.now();
    EXPECT_GT(t1, 0u);
    dev.readData(0, 2);
    const Tick t2 = dev.now();
    EXPECT_GT(t2, t1);
    dev.writeData(10, d);
    EXPECT_GT(dev.now(), t2);
}

TEST(ParaBitDevice, WriteReadRoundTrip)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 3, 2);
    dev.writeData(5, d);
    const auto back = dev.readData(5, 3);
    ASSERT_EQ(back.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(back[static_cast<std::size_t>(i)],
                  d[static_cast<std::size_t>(i)]);
}

TEST(ParaBitDevice, OperandPairIsCoLocated)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 2, 3);
    const auto y = pages(dev.ssd().config(), 2, 4);
    dev.writeOperandPair(0, 100, x, y);
    for (int i = 0; i < 2; ++i) {
        const auto ax = dev.ssd().ftl().lookup(static_cast<nvme::Lpn>(i));
        const auto ay =
            dev.ssd().ftl().lookup(100 + static_cast<nvme::Lpn>(i));
        ASSERT_TRUE(ax && ay);
        EXPECT_TRUE(ax->sameWordline(*ay)) << "page " << i;
        EXPECT_FALSE(ax->msb);
        EXPECT_TRUE(ay->msb);
    }
}

TEST(ParaBitDevice, LsbOnlyInPlanePinsThePlane)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 3, 5);
    dev.writeDataLsbOnlyInPlane(0, d, 2);
    const auto g = dev.ssd().geometry();
    for (int i = 0; i < 3; ++i) {
        const auto a = dev.ssd().ftl().lookup(static_cast<nvme::Lpn>(i));
        ASSERT_TRUE(a);
        EXPECT_FALSE(a->msb);
        EXPECT_EQ(flash::planeIndex(g, *a), 2u) << "page " << i;
    }
}

TEST(ParaBitDevice, MetaModeComputesTimingWithoutData)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    ParaBitDevice dev(cfg);
    dev.writeMetaOperandPair(0, 100, 4);
    const auto r = dev.bitwise(flash::BitwiseOp::kXor, 0, 100, 4,
                               Mode::kPreAllocated);
    EXPECT_TRUE(r.pages.empty()) << "no payloads in timing mode";
    EXPECT_GT(r.stats.senseOps, 0u);
    EXPECT_GT(r.stats.elapsed(), 0u);
}

TEST(ParaBitDevice, WriteFailureReachesTheCaller)
{
    // LSB-only placement spends a whole wordline per page, so the
    // device cannot hold its full logical capacity that way: the call
    // that runs out of space must say so, and so must a host write to
    // the full device.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const int lpns = static_cast<int>(dev.ssd().ftl().logicalPages());
    const auto d = pages(dev.ssd().config(), lpns, 9);
    LogSink prev = setLogSink([](LogLevel, const std::string &) {});
    const bool placed = dev.writeDataLsbOnly(0, d);
    const bool wrote = dev.writeData(0, {d[0]});
    setLogSink(prev);
    EXPECT_FALSE(placed);
    EXPECT_FALSE(wrote);
}

/** The seven placement helpers (PlacementTest). */
enum class Helper : std::uint8_t
{
    kData,
    kDataLsbOnly,
    kDataLsbOnlyInPlane,
    kOperandPair,
    kMeta,
    kMetaLsbOnly,
    kMetaOperandPair,
};

const char *
helperName(Helper h)
{
    switch (h) {
      case Helper::kData: return "writeData";
      case Helper::kDataLsbOnly: return "writeDataLsbOnly";
      case Helper::kDataLsbOnlyInPlane: return "writeDataLsbOnlyInPlane";
      case Helper::kOperandPair: return "writeOperandPair";
      case Helper::kMeta: return "writeMeta";
      case Helper::kMetaLsbOnly: return "writeMetaLsbOnly";
      case Helper::kMetaOperandPair: return "writeMetaOperandPair";
    }
    return "?";
}

/** Place two pages from @p lpn with @p h (a pair's MSB side from
 *  @p lpn + 100). */
bool
placeWith(ParaBitDevice &dev, Helper h, nvme::Lpn lpn)
{
    const auto d = pages(dev.ssd().config(), 2, lpn + 1);
    switch (h) {
      case Helper::kData: return dev.writeData(lpn, d);
      case Helper::kDataLsbOnly: return dev.writeDataLsbOnly(lpn, d);
      case Helper::kDataLsbOnlyInPlane:
        return dev.writeDataLsbOnlyInPlane(lpn, d, 1);
      case Helper::kOperandPair:
        return dev.writeOperandPair(lpn, lpn + 100, d, d);
      case Helper::kMeta: return dev.writeMeta(lpn, 2);
      case Helper::kMetaLsbOnly: return dev.writeMetaLsbOnly(lpn, 2);
      case Helper::kMetaOperandPair:
        return dev.writeMetaOperandPair(lpn, lpn + 100, 2);
    }
    return false;
}

class PlacementTest : public ::testing::TestWithParam<Helper>
{
};

// Every placement shape has a host write's side effects: the chip
// clocks move to the call's start, so its wordlines age from then, and
// the patrol scrubber gets its turn once the call's traffic completes.
TEST_P(PlacementTest, StampsItsStartAndGivesTheScrubberItsTurn)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(100);
    ParaBitDevice dev(cfg);
    ASSERT_TRUE(placeWith(dev, GetParam(), 0));
    const Tick start = dev.now();
    ASSERT_GT(start, 0u);
    const std::uint64_t passes = dev.ssd().media()->passes();

    ASSERT_TRUE(placeWith(dev, GetParam(), 10));
    ASSERT_GT(dev.now() - start, cfg.media.scrubInterval)
        << "the second call must run past the next scrub deadline";
    EXPECT_EQ(dev.ssd().media()->passes(), passes + 1);
    const auto a = dev.ssd().ftl().lookup(10);
    ASSERT_TRUE(a);
    const flash::Block *blk = dev.ssd()
                                  .chipAt(a->channel, a->chip)
                                  .plane(a->die, a->plane)
                                  .blockIfExists(a->block);
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->programTick(a->wordline), start);
}

INSTANTIATE_TEST_SUITE_P(
    AllHelpers, PlacementTest,
    ::testing::Values(Helper::kData, Helper::kDataLsbOnly,
                      Helper::kDataLsbOnlyInPlane, Helper::kOperandPair,
                      Helper::kMeta, Helper::kMetaLsbOnly,
                      Helper::kMetaOperandPair),
    [](const auto &info) { return std::string(helperName(info.param)); });

TEST(ParaBitDevice, MismatchedPairSizesDie)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 2, 6);
    const auto y = pages(dev.ssd().config(), 3, 7);
    EXPECT_DEATH(dev.writeOperandPair(0, 100, x, y), "sizes differ");
}

TEST(ParaBitDevice, WrongWidthPageDiesOnWriteInEveryBuild)
{
    // A page narrower than the device's must not enter flash: it would
    // read back short and fail only later, inside a sensing.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    ASSERT_EQ(dev.ssd().geometry().pageBits(), 512u);
    const std::vector<BitVector> short_page{BitVector(448, true)};
    EXPECT_DEATH(dev.writeData(0, short_page), "payload width");
}

TEST(ParaBitDevice, UnmappedOperandDies)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 8);
    dev.writeData(0, x);
    EXPECT_DEATH(dev.bitwise(flash::BitwiseOp::kAnd, 0, 999, 1,
                             Mode::kReAllocate),
                 "unmapped");
}

TEST(ParaBitDevice, ExecuteRunsParsedBatches)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 9);
    const auto y = pages(dev.ssd().config(), 1, 10);
    dev.writeData(0, x);
    dev.writeData(10, y);

    nvme::CmdParser parser(dev.ssd().geometry().pageBytes);
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kNor});
    const auto r = dev.execute(parser.parse(parser.encode(f)),
                               Mode::kReAllocate);
    ASSERT_EQ(r.pages.size(), 1u);
    EXPECT_EQ(r.pages[0], ~(x[0] | y[0]));
}

TEST(ParaBitDevice, ChainOpFormulaReportsInvalidBatch)
{
    // (A AND B) XOR (C AND D) through the in-process path: the chain
    // batch's second operand is a result, which cannot be sensed in
    // flash.  The formula reports that instead of returning C AND D.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    dev.writeData(0, pages(dev.ssd().config(), 4, 11));
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(1, 1),
                                          flash::BitwiseOp::kAnd});
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(2, 1),
                                          nvme::OperandRef::logical(3, 1),
                                          flash::BitwiseOp::kAnd});
    f.chainOps.push_back(flash::BitwiseOp::kXor);
    nvme::CmdParser parser(dev.ssd().geometry().pageBytes);
    const auto r = dev.execute(parser.buildBatches(f), Mode::kReAllocate);
    EXPECT_EQ(r.status, ExecStatus::kInvalidBatch);
    EXPECT_TRUE(r.pages.empty());
}

TEST(ParaBitDevice, TransferFlagControlsResultBytes)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    ParaBitDevice dev(cfg);
    dev.writeMetaOperandPair(0, 100, 1);
    const auto with = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                                  Mode::kPreAllocated, true);
    dev.writeMetaOperandPair(200, 300, 1);
    const auto without = dev.bitwise(flash::BitwiseOp::kAnd, 200, 300, 1,
                                     Mode::kPreAllocated, false);
    EXPECT_GT(with.stats.resultBytes, 0u);
    EXPECT_EQ(without.stats.resultBytes, 0u);
}

} // namespace
} // namespace parabit::core
