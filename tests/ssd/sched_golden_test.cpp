/**
 * @file
 * Golden timing regression: the FCFS transaction scheduler must
 * reproduce the pre-refactor greedy Timeline booking tick-for-tick.
 *
 * The reference implementation below is a verbatim replica of the seed
 * `SsdDevice::scheduleOps` algorithm (greedy per-call booking on
 * persistent per-channel / per-plane Timelines).  A deterministic mixed
 * trace — reads, programs, erases and ParaBit sensing sequences in
 * interleaved batches at varying ready times — is driven
 * through both the reference and the real device, for every SsdConfig
 * preset geometry, and every returned completion time plus the final
 * per-resource busy-tick totals must match exactly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "ssd/ssd.hpp"
#include "ssd/timeline.hpp"

namespace parabit::ssd {
namespace {

/** Verbatim replica of the seed greedy scheduler. */
class GreedyReference
{
  public:
    explicit GreedyReference(const SsdConfig &cfg)
        : cfg_(cfg), channelTls_(cfg.geometry.channels),
          planeTls_(cfg.geometry.planesTotal())
    {
    }

    Tick
    scheduleOps(const std::vector<PhysOp> &ops, Tick ready_at)
    {
        const flash::FlashTiming &t = cfg_.timing;
        const Bytes page = cfg_.geometry.pageBytes;
        Tick done = ready_at;
        for (const auto &op : ops) {
            Timeline &ch = channelTl(op.addr.channel);
            Timeline &die = planeTl(op.addr);
            Tick end = ready_at;
            switch (op.kind) {
              case PhysOp::Kind::kPageRead: {
                const Tick array =
                    op.addr.msb ? t.msbReadTime() : t.lsbReadTime();
                const Tick a_start =
                    die.reserve(ready_at + t.tCmdOverhead, array);
                const Tick x_start =
                    ch.reserve(a_start + array, t.transferTime(page));
                end = x_start + t.transferTime(page);
                break;
              }
              case PhysOp::Kind::kPageProgram: {
                const Tick x_start = ch.reserve(ready_at + t.tCmdOverhead,
                                                t.transferTime(page));
                const Tick a_start = die.reserve(
                    x_start + t.transferTime(page), t.tProgram);
                end = a_start + t.tProgram;
                break;
              }
              case PhysOp::Kind::kBlockErase: {
                const Tick a_start =
                    die.reserve(ready_at + t.tCmdOverhead, t.tErase);
                end = a_start + t.tErase;
                break;
              }
              case PhysOp::Kind::kScrubRead: {
                // Patrol scan: array sense only, no channel transfer.
                const Tick array =
                    op.addr.msb ? t.msbReadTime() : t.lsbReadTime();
                const Tick a_start =
                    die.reserve(ready_at + t.tCmdOverhead, array);
                end = a_start + array;
                break;
              }
              case PhysOp::Kind::kParaBitSense: {
                Tick ready = ready_at + t.tCmdOverhead;
                if (op.xferInBytes > 0) {
                    const Tick x = t.transferTime(op.xferInBytes);
                    ready = ch.reserve(ready, x) + x;
                }
                const Tick array =
                    t.senseTime(static_cast<int>(op.senseCount));
                const Tick a_start = die.reserve(ready, array);
                end = a_start + array;
                if (op.xferOutBytes > 0) {
                    const Tick x = t.transferTime(op.xferOutBytes);
                    const Tick x_start = ch.reserve(end, x);
                    end = x_start + x;
                }
                break;
              }
            }
            done = std::max(done, end);
        }
        return done;
    }

    Tick
    totalBookedTicks() const
    {
        Tick sum = 0;
        for (const Timeline &t : channelTls_)
            sum += t.bookedTicks();
        for (const Timeline &t : planeTls_)
            sum += t.bookedTicks();
        return sum;
    }

    Tick
    channelBooked(std::uint32_t c) const
    {
        return channelTls_.at(c).bookedTicks();
    }

    Tick planeBooked(std::size_t p) const { return planeTls_.at(p).bookedTicks(); }

  private:
    Timeline &channelTl(std::uint32_t c) { return channelTls_.at(c); }

    Timeline &
    planeTl(const flash::PhysPageAddr &a)
    {
        const std::size_t idx =
            ((static_cast<std::size_t>(a.channel) *
                  cfg_.geometry.chipsPerChannel +
              a.chip) *
                 cfg_.geometry.diesPerChip +
             a.die) *
                cfg_.geometry.planesPerDie +
            a.plane;
        return planeTls_.at(idx);
    }

    SsdConfig cfg_;
    std::vector<Timeline> channelTls_;
    std::vector<Timeline> planeTls_;
};

flash::PhysPageAddr
randomAddr(Rng &rng, const flash::FlashGeometry &g)
{
    flash::PhysPageAddr a;
    a.channel = static_cast<std::uint32_t>(rng.below(g.channels));
    a.chip = static_cast<std::uint32_t>(rng.below(g.chipsPerChannel));
    a.die = static_cast<std::uint32_t>(rng.below(g.diesPerChip));
    a.plane = static_cast<std::uint32_t>(rng.below(g.planesPerDie));
    a.block = static_cast<std::uint32_t>(rng.below(g.blocksPerPlane));
    a.wordline = static_cast<std::uint32_t>(rng.below(g.wordlinesPerBlock));
    a.msb = rng.chance(0.5);
    return a;
}

std::vector<PhysOp>
randomOps(Rng &rng, const flash::FlashGeometry &g, std::size_t n)
{
    std::vector<PhysOp> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        PhysOp op;
        op.addr = randomAddr(rng, g);
        const std::uint64_t k = rng.below(10);
        op.kind = k < 5   ? PhysOp::Kind::kPageRead
                  : k < 9 ? PhysOp::Kind::kPageProgram
                          : PhysOp::Kind::kBlockErase;
        ops.push_back(op);
    }
    return ops;
}

std::vector<PhysOp>
randomSenses(Rng &rng, const flash::FlashGeometry &g, std::size_t n)
{
    std::vector<PhysOp> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const flash::PhysPageAddr loc = randomAddr(rng, g);
        const int senses = 1 + static_cast<int>(rng.below(7));
        const Bytes in = rng.chance(0.3) ? g.pageBytes : 0;
        const Bytes out = rng.chance(0.5) ? g.pageBytes : 0;
        ops.push_back(PhysOp::paraBitSense(loc, senses, in, out));
    }
    return ops;
}

void
runGoldenTrace(const SsdConfig &base)
{
    SsdConfig cfg = base;
    cfg.storeData = false; // timing only: no payloads needed
    ASSERT_EQ(cfg.sched.policy, sched::SchedPolicyKind::kFcfs)
        << "the golden trace pins the default policy";

    SsdDevice dev(cfg);
    GreedyReference ref(cfg);
    Rng rng(0x60D71ACE);

    Tick now_dev = 0;
    Tick now_ref = 0;
    for (int round = 0; round < 12; ++round) {
        // Mixed batches at a drifting ready time, including batches
        // that start while earlier bookings still occupy resources.
        const Tick jitter = rng.below(ticks::fromUs(100));
        const Tick at_dev = now_dev / 2 + jitter;
        const Tick at_ref = now_ref / 2 + jitter;
        ASSERT_EQ(at_dev, at_ref);
        if (round % 3 == 2) {
            const auto senses =
                randomSenses(rng, cfg.geometry, 1 + rng.below(24));
            now_dev = dev.scheduleOps(senses, at_dev);
            now_ref = ref.scheduleOps(senses, at_ref);
        } else {
            const auto ops = randomOps(rng, cfg.geometry, 1 + rng.below(32));
            now_dev = dev.scheduleOps(ops, at_dev);
            now_ref = ref.scheduleOps(ops, at_ref);
        }
        ASSERT_EQ(now_dev, now_ref) << "diverged at round " << round;
    }

    // Busy-time accounting must agree resource-by-resource (satellite:
    // FCFS-vs-greedy utilization asserted equal).
    const sched::SchedStats s = dev.scheduler().stats();
    for (std::uint32_t c = 0; c < cfg.geometry.channels; ++c)
        EXPECT_EQ(s.channelBusy.at(c), ref.channelBooked(c)) << "channel " << c;
    for (std::uint32_t p = 0; p < cfg.geometry.planesTotal(); ++p)
        EXPECT_EQ(s.dieBusy.at(p), ref.planeBooked(p)) << "plane " << p;
    EXPECT_EQ(s.submitted, s.completed);
    EXPECT_EQ(s.suspends, 0u) << "FCFS never suspends";
}

TEST(SchedGolden, TinyPresetTickIdentical)
{
    runGoldenTrace(SsdConfig::tiny());
}

TEST(SchedGolden, PaperSsdPresetTickIdentical)
{
    runGoldenTrace(SsdConfig::paperSsd());
}

TEST(SchedGolden, SkewedGeometryTickIdentical)
{
    // A deliberately lopsided geometry: one channel, many planes (die
    // contention differs sharply from channel contention).
    SsdConfig cfg = SsdConfig::tiny();
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 4;
    cfg.geometry.diesPerChip = 2;
    cfg.geometry.planesPerDie = 4;
    runGoldenTrace(cfg);
}

TEST(SchedGolden, SmallBatchesAfterALargeOneStayTickIdentical)
{
    // The shape of a bulk placement followed by per-page ParaBit work:
    // one batch of thousands of transactions, then one-op batches that
    // start while its bookings still occupy the device.  Every
    // completion of every batch, and each resource's busy ticks, must
    // match the greedy replica.
    SsdConfig cfg = SsdConfig::paperSsd();
    cfg.storeData = false;
    SsdDevice dev(cfg);
    GreedyReference ref(cfg);
    Rng rng(0xB16BA7C4);

    const auto big = randomOps(rng, cfg.geometry, 4096);
    const sched::TxGroup g = dev.submitOps(big, 0);
    ASSERT_EQ(g.size(), big.size());
    const Tick big_end = dev.drainTransactions();
    Tick ref_end = 0;
    for (std::size_t i = 0; i < big.size(); ++i) {
        // Greedy booking is per op in order, so one op at a time books
        // exactly what the whole batch does.
        const Tick want = ref.scheduleOps({big[i]}, 0);
        ASSERT_EQ(dev.scheduler().completionOf(g.lo + i), want)
            << "op " << i << " of the large batch";
        ref_end = std::max(ref_end, want);
    }
    ASSERT_EQ(big_end, ref_end);

    for (int batch = 0; batch < 96; ++batch) {
        const Tick at = rng.below(big_end);
        Tick dev_done = 0;
        Tick ref_done = 0;
        if (batch % 2 == 0) {
            const auto ops = randomOps(rng, cfg.geometry, 1);
            dev_done = dev.scheduleOps(ops, at);
            ref_done = ref.scheduleOps(ops, at);
        } else {
            const auto senses = randomSenses(rng, cfg.geometry, 1);
            dev_done = dev.scheduleOps(senses, at);
            ref_done = ref.scheduleOps(senses, at);
        }
        ASSERT_EQ(dev_done, ref_done) << "one-op batch " << batch;
    }

    const sched::SchedStats s = dev.scheduler().stats();
    for (std::uint32_t c = 0; c < cfg.geometry.channels; ++c)
        EXPECT_EQ(s.channelBusy.at(c), ref.channelBooked(c)) << "channel " << c;
    for (std::uint32_t p = 0; p < cfg.geometry.planesTotal(); ++p)
        EXPECT_EQ(s.dieBusy.at(p), ref.planeBooked(p)) << "plane " << p;
    EXPECT_EQ(s.submitted, s.completed);
}

TEST(SchedGolden, RepeatedRunsAreDeterministic)
{
    // Same trace, two fresh devices: identical final clocks and busy
    // vectors (the determinism anchor for the TSan job).
    SsdConfig cfg = SsdConfig::tiny();
    cfg.storeData = false;
    auto runOnce = [&cfg] {
        SsdDevice dev(cfg);
        Rng rng(0xD37E12);
        Tick now = 0;
        for (int round = 0; round < 6; ++round) {
            const auto ops = randomOps(rng, cfg.geometry, 16);
            now = dev.scheduleOps(ops, now / 2);
        }
        return std::make_pair(now, dev.scheduler().stats().channelBusy);
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

} // namespace
} // namespace parabit::ssd
