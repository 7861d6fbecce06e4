/**
 * @file
 * The controller books in-place senses from its pending list, up to a
 * stripe per scheduler submission, and that must book exactly what one
 * submission per sense books.  Each case runs one formula on a device
 * and the same formula one page at a time on a twin device, at the same
 * tick: one batch per page, so the twin books each sense with one
 * SsdDevice::scheduleOps, in page order.  The two must agree on the
 * formula's ExecStats, on every booked phase of every transaction (its
 * trace span: transaction id, resource, start and end), on the channel
 * and plane busy ticks and on the submitted count, under every
 * scheduling policy.  Two cases put another booking in the middle of a
 * window (LocFree staging, a RAIN repair), which a skipped flush would
 * book ahead of the senses before it; with health tracking on, the
 * health machine's pressure and transitions must agree as well.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nvme/parser.hpp"
#include "obs/trace.hpp"
#include "parabit/device.hpp"
#include "ssd/fault_injector.hpp"

namespace parabit::core {
namespace {

using ssd::sched::SchedPolicyKind;

constexpr nvme::Lpn kX = 0;

/** Pages per operand: two stripes and five pages, so windows fill
 *  twice and the last one ends with the batch. */
std::uint32_t
operandPages(const ssd::SsdConfig &cfg)
{
    return 2 * cfg.geometry.planesTotal() + 5;
}

/** A page in the middle of the second window. */
std::uint32_t
midWindowPage(const ssd::SsdConfig &cfg)
{
    return cfg.geometry.planesTotal() * 3 / 2;
}

ssd::SsdConfig
timingConfig(SchedPolicyKind policy)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    cfg.sched.policy = policy;
    return cfg;
}

/** With RAIN parity, which needs the patrol scrubber running; its
 *  passes come far apart, so none runs during a formula. */
ssd::SsdConfig
rainConfig(SchedPolicyKind policy)
{
    ssd::SsdConfig cfg = timingConfig(policy);
    cfg.rain.enabled = true;
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromMs(1000);
    return cfg;
}

/** Kill the plane of Y's middle-of-window page on @p dev. */
void
killMidWindowPlane(ParaBitDevice &dev, nvme::Lpn y)
{
    const ssd::SsdConfig &cfg = dev.ssd().config();
    ssd::FaultSpec dead;
    dead.cls = ssd::FaultClass::kDeadPlane;
    dead.plane = flash::planeIndex(
        cfg.geometry, *dev.ssd().ftl().lookup(y + midWindowPage(cfg)));
    dev.ssd().injectFault(dead);
}

/** Operands in the layout a mode computes on, X at kX. */
enum class Layout : std::uint8_t
{
    kCoLocatedPair, ///< ParaBit: page i of X and Y on one wordline
    kLsbSamePlanes, ///< LocFree: LSB-only, page i of X and Y in one plane
};

/** Place both operands of @p pages pages, from payload seed @p seed
 *  on a functional device.  @return Y's first LPN. */
nvme::Lpn
placeOperands(ParaBitDevice &dev, Layout layout, std::uint32_t pages,
              std::uint64_t seed = 1)
{
    const ssd::SsdConfig &cfg = dev.ssd().config();
    const auto data = [&](std::uint64_t s) {
        std::vector<BitVector> out;
        Rng rng(s);
        for (std::uint32_t p = 0; cfg.storeData && p < pages; ++p) {
            BitVector v(cfg.geometry.pageBits());
            for (auto &w : v.words())
                w = rng.next();
            v.maskTail();
            out.push_back(std::move(v));
        }
        return out;
    };
    if (layout == Layout::kCoLocatedPair) {
        EXPECT_TRUE(cfg.storeData
                        ? dev.writeOperandPair(kX, kX + pages, data(seed),
                                               data(seed + 1))
                        : dev.writeMetaOperandPair(kX, kX + pages, pages));
        return kX + pages;
    }
    // The FTL stripes placements over the planes round-robin, so a
    // filler tops X up to whole stripes and Y starts where X did.
    const std::uint32_t planes = cfg.geometry.planesTotal();
    const std::uint32_t fill = (planes - pages % planes) % planes;
    EXPECT_FALSE(cfg.storeData);
    EXPECT_TRUE(dev.writeMetaLsbOnly(kX, pages));
    EXPECT_TRUE(dev.writeMetaLsbOnly(kX + pages, fill));
    EXPECT_TRUE(dev.writeMetaLsbOnly(kX + pages + fill, pages));
    return kX + pages + fill;
}

/** What one run of a formula booked. */
struct Booked
{
    ExecStats stats;
    ExecStatus status = ExecStatus::kOk;
    std::vector<BitVector> pages;
    std::string spans; ///< every booked phase, as trace JSON
    ssd::sched::SchedStats sched;
};

/**
 * XOR of X and Y (@p pages pages from @p x and @p y) in @p mode, as one
 * formula or, with @p page_by_page, as one formula per page, each
 * submitted at the device clock.
 */
Booked
runXor(ParaBitDevice &dev, nvme::Lpn x, nvme::Lpn y, std::uint32_t pages,
       Mode mode, bool page_by_page)
{
    obs::TraceSink sink;
    ssd::sched::TransactionScheduler &sched = dev.ssd().scheduler();
    sched.setTraceSink(&sink);
    const nvme::CmdParser parser(dev.ssd().geometry().pageBytes);
    const Tick at = dev.now();
    const auto formula = [&](std::uint32_t first, std::uint32_t n) {
        return dev.controller().executeBatches(
            parser.buildBatches(nvme::Formula::chain(
                flash::BitwiseOp::kXor, {x + first, y + first}, n)),
            mode, at);
    };

    Booked b;
    if (page_by_page) {
        b.stats.start = b.stats.end = at;
        for (std::uint32_t p = 0; p < pages; ++p) {
            ExecResult r = formula(p, 1);
            b.stats.accumulate(r.stats);
            b.status = std::max(b.status, r.status);
            for (BitVector &page : r.pages)
                b.pages.push_back(std::move(page));
        }
    } else {
        ExecResult r = formula(0, pages);
        b.stats = r.stats;
        b.status = r.status;
        b.pages = std::move(r.pages);
    }
    sched.setTraceSink(nullptr);
    b.spans = sink.toJson();
    b.sched = sched.stats();
    return b;
}

/** The device under test and its twin book the same. */
void
expectSameBookings(const Booked &whole, const Booked &twin,
                   const std::string &what)
{
    EXPECT_EQ(whole.status, ExecStatus::kOk) << what;
    EXPECT_EQ(whole.status, twin.status) << what;
    EXPECT_EQ(whole.stats.end, twin.stats.end) << what;
    EXPECT_EQ(whole.stats.senseOps, twin.stats.senseOps) << what;
    EXPECT_EQ(whole.stats.resultBytes, twin.stats.resultBytes) << what;
    EXPECT_EQ(whole.stats.pageReads, twin.stats.pageReads) << what;
    EXPECT_EQ(whole.stats.pagePrograms, twin.stats.pagePrograms) << what;
    EXPECT_EQ(whole.pages, twin.pages) << what;
    EXPECT_TRUE(whole.spans == twin.spans)
        << what << ": a transaction booked a different phase";
    EXPECT_EQ(whole.sched.submitted, twin.sched.submitted) << what;
    EXPECT_EQ(whole.sched.channelBusy, twin.sched.channelBusy) << what;
    EXPECT_EQ(whole.sched.dieBusy, twin.sched.dieBusy) << what;
}

class PendingSenses : public ::testing::TestWithParam<SchedPolicyKind>
{
};

TEST_P(PendingSenses, InPlaceSensesBookAsOneSubmissionPerSense)
{
    const ssd::SsdConfig cfg = timingConfig(GetParam());
    const std::uint32_t pages = operandPages(cfg);
    struct Case
    {
        Mode mode;
        Layout layout;
    };
    for (const Case c : {Case{Mode::kPreAllocated, Layout::kCoLocatedPair},
                         Case{Mode::kLocationFree, Layout::kLsbSamePlanes}}) {
        ParaBitDevice dev(cfg), twin(cfg);
        const nvme::Lpn y = placeOperands(dev, c.layout, pages);
        ASSERT_EQ(placeOperands(twin, c.layout, pages), y);
        const Booked whole = runXor(dev, kX, y, pages, c.mode, false);
        const Booked one = runXor(twin, kX, y, pages, c.mode, true);
        expectSameBookings(whole, one, modeName(c.mode));
        // In place: nothing moved, every result transferred.
        EXPECT_EQ(whole.stats.pagePrograms, 0u) << modeName(c.mode);
        EXPECT_EQ(whole.stats.resultBytes,
                  std::uint64_t{pages} * cfg.geometry.pageBytes);
    }
}

TEST_P(PendingSenses, StagingMidWindowBooksAfterTheSensesBeforeIt)
{
    const ssd::SsdConfig cfg = timingConfig(GetParam());
    const std::uint32_t pages = operandPages(cfg);
    const std::uint32_t mid = midWindowPage(cfg);
    ParaBitDevice dev(cfg), twin(cfg);
    nvme::Lpn y = 0;
    for (ParaBitDevice *d : {&dev, &twin}) {
        y = placeOperands(*d, Layout::kLsbSamePlanes, pages);
        // Rewrite X's middle page at the FTL's next plane, away from Y's.
        ASSERT_TRUE(d->writeMetaLsbOnly(kX + mid, 1));
        const ssd::Ftl &ftl = d->ssd().ftl();
        ASSERT_FALSE(
            ftl.lookup(kX + mid)->sameBitlines(*ftl.lookup(y + mid)));
    }
    const Booked whole =
        runXor(dev, kX, y, pages, Mode::kLocationFree, false);
    const Booked one = runXor(twin, kX, y, pages, Mode::kLocationFree, true);
    expectSameBookings(whole, one, "staging");
    EXPECT_EQ(whole.stats.pagePrograms, 1u); // the one staged copy
}

TEST_P(PendingSenses, RepairMidWindowBooksAfterTheSensesBeforeIt)
{
    const ssd::SsdConfig cfg = rainConfig(GetParam());
    const std::uint32_t pages = operandPages(cfg);
    ParaBitDevice dev(cfg), twin(cfg);
    nvme::Lpn y = 0;
    for (ParaBitDevice *d : {&dev, &twin}) {
        // The middle page pair's plane dies: RAIN re-places both pages.
        y = placeOperands(*d, Layout::kCoLocatedPair, pages);
        killMidWindowPlane(*d, y);
    }
    const Booked whole =
        runXor(dev, kX, y, pages, Mode::kPreAllocated, false);
    const Booked one = runXor(twin, kX, y, pages, Mode::kPreAllocated, true);
    expectSameBookings(whole, one, "repair");
    EXPECT_GT(whole.stats.pagePrograms, 0u); // the repaired pair re-paired
}

TEST_P(PendingSenses, HealthSeesEverySenseComplete)
{
    // A functional device, so RAIN rebuilds charge the health budget: a
    // dead plane's page pair degrades the device, and the pressure then
    // decays over the senses that follow, back to healthy.
    ssd::SsdConfig cfg = rainConfig(GetParam());
    cfg.storeData = true;
    cfg.geometry.pageBytes = 512;
    cfg.health.enabled = true;
    cfg.health.degradedThreshold = 1.5;
    cfg.health.pressureHalfLife = ticks::fromUs(5);
    cfg.health.minDwell = ticks::fromUs(1);
    const std::uint32_t pages = operandPages(cfg);
    ParaBitDevice dev(cfg), twin(cfg);
    nvme::Lpn y = 0;
    for (ParaBitDevice *d : {&dev, &twin}) {
        y = placeOperands(*d, Layout::kCoLocatedPair, pages);
        killMidWindowPlane(*d, y);
    }
    const Booked whole =
        runXor(dev, kX, y, pages, Mode::kPreAllocated, false);
    const Booked one = runXor(twin, kX, y, pages, Mode::kPreAllocated, true);
    expectSameBookings(whole, one, "health");
    ASSERT_EQ(whole.pages.size(), pages);

    const ssd::DeviceHealth &h = *dev.ssd().health();
    const ssd::DeviceHealth &th = *twin.ssd().health();
    EXPECT_EQ(h.pressure(), th.pressure());
    ASSERT_EQ(h.transitions().size(), th.transitions().size());
    ASSERT_GE(h.transitions().size(), 2u); // degraded, and back
    for (std::size_t i = 0; i < h.transitions().size(); ++i) {
        const ssd::HealthTransition &a = h.transitions()[i];
        const ssd::HealthTransition &b = th.transitions()[i];
        EXPECT_EQ(a.from, b.from) << "transition " << i;
        EXPECT_EQ(a.to, b.to) << "transition " << i;
        EXPECT_EQ(a.at, b.at) << "transition " << i;
        EXPECT_EQ(a.pressure, b.pressure) << "transition " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PendingSenses,
    ::testing::Values(SchedPolicyKind::kFcfs,
                      SchedPolicyKind::kOutOfOrderDieFirst,
                      SchedPolicyKind::kReadPriority),
    [](const ::testing::TestParamInfo<SchedPolicyKind> &info) {
        switch (info.param) {
          case SchedPolicyKind::kFcfs: return "Fcfs";
          case SchedPolicyKind::kOutOfOrderDieFirst: return "OooDieFirst";
          case SchedPolicyKind::kReadPriority: return "ReadPriority";
        }
        return "Unknown";
    });

} // namespace
} // namespace parabit::core
