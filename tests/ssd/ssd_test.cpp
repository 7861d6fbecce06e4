/**
 * @file
 * SsdDevice timing-model tests: latency anchors, channel/die pipelining,
 * plane parallelism, endurance accounting, internal bandwidth.
 */

#include <gtest/gtest.h>

#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

SsdConfig
tinyCfg()
{
    SsdConfig c = SsdConfig::tiny();
    c.storeData = false; // timing-only is enough here
    return c;
}

TEST(SsdDevice, SingleLsbReadLatency)
{
    SsdConfig cfg = tinyCfg();
    SsdDevice dev(cfg);
    std::vector<PhysOp> ops;
    dev.ftl().writePage(0, nullptr, ops);
    // Use a fresh op list so only the read is timed.
    std::vector<PhysOp> rops;
    dev.ftl().readPage(0, rops);
    const Tick done = dev.scheduleOps(rops, ticks::fromSec(1.0));
    const Tick expect = ticks::fromSec(1.0) + cfg.timing.tCmdOverhead +
                        cfg.timing.lsbReadTime() +
                        cfg.timing.transferTime(cfg.geometry.pageBytes);
    EXPECT_EQ(done, expect);
}

TEST(SsdDevice, MsbReadCostsTwoSensings)
{
    SsdConfig cfg = tinyCfg();
    SsdDevice dev(cfg);
    // Occupy LSB then MSB pages; LPN 1 lands on the MSB of some pair
    // only with paired placement, so place explicitly.
    std::vector<PhysOp> ops;
    dev.ftl().writePair(0, 1, nullptr, nullptr, ops);
    std::vector<PhysOp> r_lsb, r_msb;
    dev.ftl().readPage(0, r_lsb);
    dev.ftl().readPage(1, r_msb);
    const Tick t_lsb = dev.scheduleOps(r_lsb, 0);
    // Schedule the MSB read far later so timelines are idle again.
    const Tick base = ticks::fromSec(10.0);
    const Tick t_msb = dev.scheduleOps(r_msb, base) - base;
    EXPECT_EQ(t_msb - t_lsb, cfg.timing.tSense);
}

TEST(SsdDevice, ProgramLatencyAnchor)
{
    SsdConfig cfg = tinyCfg();
    SsdDevice dev(cfg);
    std::vector<PhysOp> ops;
    dev.ftl().writePage(0, nullptr, ops);
    const Tick done = dev.scheduleOps(ops, 0);
    const Tick expect = cfg.timing.tCmdOverhead +
                        cfg.timing.transferTime(cfg.geometry.pageBytes) +
                        cfg.timing.tProgram;
    EXPECT_EQ(done, expect);
}

TEST(SsdDevice, ReadsOnDifferentChannelsRunInParallel)
{
    SsdConfig cfg = tinyCfg();
    SsdDevice dev(cfg);
    std::vector<PhysOp> w;
    // Striped writes land on different channels.
    dev.ftl().writePage(0, nullptr, w);
    dev.ftl().writePage(1, nullptr, w);
    std::vector<PhysOp> r;
    dev.ftl().readPage(0, r);
    dev.ftl().readPage(1, r);
    const Tick both = dev.scheduleOps(r, 0);
    std::vector<PhysOp> r0{r[0]};
    SsdDevice dev2(cfg);
    std::vector<PhysOp> w2;
    dev2.ftl().writePage(0, nullptr, w2);
    std::vector<PhysOp> r2;
    dev2.ftl().readPage(0, r2);
    const Tick one = dev2.scheduleOps(r2, 0);
    EXPECT_EQ(both, one) << "independent channels must fully overlap";
}

TEST(SsdDevice, CacheReadPipelinesSensingUnderTransfer)
{
    // Many sequential reads from one die: total time must approach
    // max(sum of sensings, sum of transfers) + pipeline fill, not the
    // sum of both.
    SsdConfig cfg = tinyCfg();
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.planesPerDie = 1;
    SsdDevice dev(cfg);
    const int n = 16;
    std::vector<PhysOp> w;
    for (int i = 0; i < n; ++i)
        dev.ftl().writeLsbOnly(static_cast<Lpn>(i), nullptr, w);
    std::vector<PhysOp> r;
    for (int i = 0; i < n; ++i)
        dev.ftl().readPage(static_cast<Lpn>(i), r);
    const Tick done = dev.scheduleOps(r, 0);
    // Sensing dominates and transfers hide under it: total is the
    // sensing train plus one command overhead and one trailing transfer.
    const Tick sense_total = static_cast<Tick>(n) * cfg.timing.lsbReadTime();
    const Tick xfer = cfg.timing.transferTime(cfg.geometry.pageBytes);
    EXPECT_LT(done, sense_total + static_cast<Tick>(n) * xfer)
        << "no pipelining happened";
    EXPECT_GE(done, sense_total);
    EXPECT_EQ(done, sense_total + cfg.timing.tCmdOverhead + xfer);
}

TEST(SsdDevice, ParaBitSenseBooksSenseTimePerDie)
{
    SsdConfig cfg = tinyCfg();
    SsdDevice dev(cfg);
    flash::PhysPageAddr a{};
    const PhysOp sense = PhysOp::paraBitSense(a, 4, 0, 0); // XOR: 4 SROs
    const Tick done = dev.scheduleOps({&sense, 1}, 0);
    EXPECT_EQ(done, cfg.timing.tCmdOverhead + 4 * cfg.timing.tSense);
}

TEST(SsdDevice, ParaBitSenseOnAllPlanesOverlaps)
{
    SsdConfig cfg = tinyCfg();
    SsdDevice dev(cfg);
    std::vector<PhysOp> ops;
    for (std::uint32_t ch = 0; ch < cfg.geometry.channels; ++ch) {
        for (std::uint32_t c = 0; c < cfg.geometry.chipsPerChannel; ++c) {
            flash::PhysPageAddr a{};
            a.channel = ch;
            a.chip = c;
            ops.push_back(PhysOp::paraBitSense(a, 1, 0, 0));
        }
    }
    const Tick done = dev.scheduleOps(ops, 0);
    EXPECT_EQ(done, cfg.timing.tCmdOverhead + cfg.timing.tSense)
        << "independent dies must sense concurrently";
}

TEST(SsdDevice, EnduranceTracksWriteClasses)
{
    SsdConfig cfg = tinyCfg();
    SsdDevice dev(cfg);
    std::vector<PhysOp> ops;
    dev.ftl().writePage(0, nullptr, ops);       // host
    dev.ftl().writePair(1, 2, nullptr, nullptr, ops); // parabit x2
    const EnduranceStats e = dev.endurance();
    EXPECT_EQ(e.hostBytes, cfg.geometry.pageBytes);
    EXPECT_EQ(e.reallocBytes, 2 * cfg.geometry.pageBytes);
    EXPECT_DOUBLE_EQ(e.effectiveTbw(600.0), 600.0 * 1.0 / 3.0);
}

TEST(SsdDevice, InternalBandwidthScalesWithChannels)
{
    SsdConfig one = tinyCfg();
    one.geometry.channels = 1;
    SsdConfig two = tinyCfg();
    two.geometry.channels = 2;
    EXPECT_NEAR(SsdDevice(two).internalReadBandwidth() /
                    SsdDevice(one).internalReadBandwidth(),
                2.0, 1e-9);
}

TEST(SsdDevice, PaperSsdBandwidthIsBusBound)
{
    // 16 chips x 4 planes per channel easily saturate an 800 MB/s bus.
    SsdConfig cfg = SsdConfig::paperSsd();
    SsdDevice dev(cfg);
    EXPECT_NEAR(dev.internalReadBandwidth(),
                cfg.timing.channelBytesPerSec * cfg.geometry.channels,
                1.0);
}

TEST(EnduranceStats, PaperSection54Formula)
{
    // Bitmap: 33.99 GiB host data, 67.79 GiB reallocated -> TBW 600
    // shrinks to ~200.4 (paper: 200.67).
    EnduranceStats e;
    e.hostBytes = static_cast<Bytes>(33.99 * 1024) * bytes::kMiB;
    e.reallocBytes = static_cast<Bytes>(67.79 * 1024) * bytes::kMiB;
    EXPECT_NEAR(e.effectiveTbw(600.0), 200.4, 1.0);
}

} // namespace
} // namespace parabit::ssd
