/**
 * @file
 * End-to-end controller tests on a functional tiny device: every op in
 * every execution mode must produce the host-golden result, chains must
 * fold correctly, and the instrumentation (senses, programs, realloc
 * bytes) must match the mode's expected behaviour.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "nvme/parser.hpp"
#include "obs/metrics.hpp"
#include "parabit/device.hpp"
#include "ssd/fault_injector.hpp"

namespace parabit::core {
namespace {

std::vector<BitVector>
randomPages(const ssd::SsdConfig &cfg, std::uint32_t n, Rng &rng)
{
    std::vector<BitVector> pages;
    for (std::uint32_t p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (std::size_t i = 0; i < v.size(); ++i)
            v.set(i, rng.chance(0.5));
        pages.push_back(std::move(v));
    }
    return pages;
}

BitVector
goldenOp(flash::BitwiseOp op, const BitVector &x, const BitVector &y)
{
    BitVector out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out.set(i, flash::opGolden(op, x.get(i), y.get(i)));
    return out;
}

class ControllerModeOpTest
    : public ::testing::TestWithParam<std::tuple<flash::BitwiseOp, Mode>>
{
};

TEST_P(ControllerModeOpTest, BinaryOpMatchesGolden)
{
    const auto [op, mode] = GetParam();
    if (flash::isUnary(op))
        GTEST_SKIP() << "unary ops covered separately";

    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(static_cast<std::uint64_t>(op) * 10 +
            static_cast<std::uint64_t>(mode));
    const std::uint32_t pages = 3;
    const auto xs = randomPages(dev.ssd().config(), pages, rng);
    const auto ys = randomPages(dev.ssd().config(), pages, rng);

    // Layout per mode: pre-allocated pairs for kPreAllocated; LSB-only
    // for location-free (both-LSB variant); arbitrary placement for
    // ReAlloc.
    if (mode == Mode::kPreAllocated) {
        dev.writeOperandPair(0, 100, xs, ys);
    } else if (mode == Mode::kLocationFree) {
        dev.writeDataLsbOnly(0, xs);
        dev.writeDataLsbOnly(100, ys);
    } else {
        dev.writeData(0, xs);
        dev.writeData(100, ys);
    }

    const ExecResult r = dev.bitwise(op, 0, 100, pages, mode);
    ASSERT_EQ(r.pages.size(), pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
        // Operand roles: X is the LSB operand, Y the MSB operand in
        // co-located mode.  Both roles commute for these ops.
        EXPECT_EQ(r.pages[p], goldenOp(op, xs[p], ys[p]))
            << opName(op) << " mode " << modeName(mode) << " page " << p;
    }
    EXPECT_GT(r.stats.senseOps, 0u);
    EXPECT_GT(r.stats.elapsed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAllModes, ControllerModeOpTest,
    ::testing::Combine(
        ::testing::Values(flash::BitwiseOp::kAnd, flash::BitwiseOp::kOr,
                          flash::BitwiseOp::kXnor, flash::BitwiseOp::kNand,
                          flash::BitwiseOp::kNor, flash::BitwiseOp::kXor),
        ::testing::Values(Mode::kPreAllocated, Mode::kReAllocate,
                          Mode::kLocationFree)),
    [](const auto &info) {
        std::string n = flash::opName(std::get<0>(info.param));
        for (auto &c : n)
            if (c == '-')
                c = '_';
        switch (std::get<1>(info.param)) {
          case Mode::kPreAllocated: n += "_Pre"; break;
          case Mode::kReAllocate: n += "_ReAlloc"; break;
          case Mode::kLocationFree: n += "_LocFree"; break;
        }
        return n;
    });

/** Enables the global metrics registry for a scope, then wipes it. */
class RegistryScope
{
  public:
    RegistryScope() { obs::MetricsRegistry::global().setEnabled(true); }

    ~RegistryScope()
    {
        obs::MetricsRegistry::global().setEnabled(false);
        obs::MetricsRegistry::global().clear();
    }
};

std::uint64_t
registryCount(const std::string &name)
{
    const auto &c = obs::MetricsRegistry::global().counters();
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

TEST(Controller, NotOpAllModes)
{
    // NOT senses its operand's own page, so its sequence follows the
    // placement: an operand on an MSB page needs NOT-MSB, and ReAlloc's
    // LSB-only copy needs NOT-LSB whatever the original was.
    for (const bool msb : {false, true}) {
        for (Mode mode :
             {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree}) {
            RegistryScope scope;
            ParaBitDevice dev(ssd::SsdConfig::tiny());
            Rng rng(55);
            const auto xs = randomPages(dev.ssd().config(), 2, rng);
            if (msb)
                dev.writeOperandPair(100, 0,
                                     randomPages(dev.ssd().config(), 2, rng),
                                     xs);
            else
                dev.writeDataLsbOnly(0, xs);
            ASSERT_EQ(dev.ssd().ftl().lookup(0)->msb, msb);
            const ExecResult r = dev.bitwiseNot(0, 2, mode);
            const std::string where =
                std::string(modeName(mode)) + (msb ? " MSB" : " LSB");
            ASSERT_EQ(r.status, ExecStatus::kOk) << where;
            ASSERT_EQ(r.pages.size(), 2u) << where;
            for (std::size_t p = 0; p < 2; ++p)
                EXPECT_EQ(r.pages[p], ~xs[p]) << where << " page " << p;
            if (mode == Mode::kReAllocate) {
                EXPECT_GT(r.stats.reallocBytes, 0u)
                    << "the paper charges NOT a reallocation in ReAlloc mode";
            } else {
                EXPECT_EQ(r.stats.reallocBytes, 0u) << where;
            }
            const bool ran_msb = msb && mode != Mode::kReAllocate;
            const std::string ops =
                std::string("parabit.ops.") + modeName(mode) + ".";
            EXPECT_EQ(registryCount(ops + "NOT-MSB"), ran_msb ? 2u : 0u)
                << where;
            EXPECT_EQ(registryCount(ops + "NOT-LSB"), ran_msb ? 0u : 2u)
                << where;
        }
    }
}

TEST(Controller, ReAllocNotReadsProgramsThenSenses)
{
    // The copy's program takes the data its read returned, so it waits
    // for the read: one page costs read + program + sense, each with its
    // command and one page transfer.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(56);
    dev.writeDataLsbOnly(0, randomPages(dev.ssd().config(), 1, rng));
    const ExecResult r = dev.bitwiseNot(0, 1, Mode::kReAllocate);
    const flash::FlashTiming &t = dev.ssd().config().timing;
    const Tick xfer = t.transferTime(dev.ssd().geometry().pageBytes);
    EXPECT_EQ(r.stats.elapsed(),
              3 * t.tCmdOverhead + t.lsbReadTime() + t.tProgram +
                  t.senseTime(flash::coLocatedProgram(
                                  flash::BitwiseOp::kNotLsb)
                                  .senseCount()) +
                  3 * xfer);
    EXPECT_EQ(r.stats.elapsed(), ticks::fromNs(690840));
}

TEST(Controller, ReAllocNotSensesInPlaceWhenTheCopyCannotBePlaced)
{
    // NOT never needed the move: with every program failing, the copy
    // cannot be placed and the original page is sensed where it is.
    for (const bool msb : {false, true}) {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        Rng rng(57);
        const auto xs = randomPages(dev.ssd().config(), 1, rng);
        if (msb)
            dev.writeOperandPair(100, 0,
                                 randomPages(dev.ssd().config(), 1, rng), xs);
        else
            dev.writeDataLsbOnly(0, xs);
        for (ssd::PlaneIndex p = 0; p < dev.ssd().geometry().planesTotal();
             ++p) {
            ssd::FaultSpec s;
            s.cls = ssd::FaultClass::kProgramFailure;
            s.plane = p;
            s.failPeriod = 1;
            dev.ssd().injectFault(s);
        }
        LogSink prev = setLogSink([](LogLevel, const std::string &) {});
        const ExecResult r = dev.bitwiseNot(0, 1, Mode::kReAllocate);
        setLogSink(prev);
        ASSERT_EQ(r.status, ExecStatus::kOk) << (msb ? "MSB" : "LSB");
        ASSERT_EQ(r.pages.size(), 1u);
        EXPECT_EQ(r.pages[0], ~xs[0]) << (msb ? "MSB" : "LSB");
        EXPECT_GT(dev.ssd().ftl().programFailures(), 0u);
    }
}

/** Operand layouts the page-op paths branch on. */
enum class Placement : std::uint8_t
{
    kPair,         ///< X/Y share a wordline (X LSB, Y MSB)
    kLsbSamePlane, ///< every operand LSB-only in plane 0
    kMsbSamePlane, ///< every operand on an MSB page in plane 0
    kCrossPlane,   ///< every operand LSB-only, each in its own plane
    kPlainWrite,   ///< host writes
};

constexpr nvme::Lpn kX = 0, kY = 100, kZ = 200; ///< operands (Z: chains)
constexpr nvme::Lpn kFiller = 500;              ///< pair partners
constexpr std::uint32_t kOperandPages = 2;

/** Place X, Y and Z per @p pl through the FTL, with payloads only on a
 *  functional device, so both kinds of device make the same calls. */
void
placeOperands(ParaBitDevice &dev, Placement pl)
{
    ssd::Ftl &ftl = dev.ssd().ftl();
    const bool functional = dev.ssd().config().storeData;
    Rng rng(77);
    std::vector<ssd::PhysOp> ops;
    const auto data = [&]() -> flash::Payload {
        if (!functional)
            return nullptr;
        return flash::makePayload(randomPages(dev.ssd().config(), 1, rng)[0]);
    };
    const std::vector<nvme::Lpn> operands = {kX, kY, kZ};
    for (std::size_t k = 0; k < operands.size(); ++k) {
        const auto plane = static_cast<ssd::PlaneIndex>(k);
        for (std::uint32_t p = 0; p < kOperandPages; ++p) {
            const nvme::Lpn lpn = operands[k] + p;
            const nvme::Lpn filler = kFiller + 100 * k + p;
            const flash::Payload a = data();
            const flash::Payload b = data();
            bool ok = true;
            switch (pl) {
              case Placement::kPair:
                if (lpn < kY) // Y rides on X's wordline
                    ok = ftl.writePair(lpn, kY + p, a, b, ops).has_value();
                else if (lpn >= kZ)
                    ok = ftl.writePair(lpn, filler, a, b, ops).has_value();
                break;
              case Placement::kLsbSamePlane:
                ok = ftl.writeLsbOnly(lpn, a, ops, 0).has_value();
                break;
              case Placement::kMsbSamePlane:
                ok = ftl.writePair(filler, lpn, a, b, ops, 0).has_value();
                break;
              case Placement::kCrossPlane:
                ok = ftl.writeLsbOnly(lpn, a, ops, plane).has_value();
                break;
              case Placement::kPlainWrite:
                ok = ftl.writePage(lpn, a.get(), ops);
                break;
            }
            ASSERT_TRUE(ok) << "LPN " << lpn;
        }
    }
    dev.ssd().scheduleOps(ops, 0);
}

class FunctionalVsTimingTest
    : public ::testing::TestWithParam<std::tuple<Placement, Mode>>
{
};

TEST_P(FunctionalVsTimingTest, BookTheSameTicks)
{
    // Payloads must never change what is booked: a timing-only device
    // runs the same reads, programs and senses at the same ticks.
    const auto [pl, mode] = GetParam();
    using Run = std::function<ExecResult(ParaBitDevice &)>;
    std::vector<std::pair<std::string, Run>> runs;
    for (const auto op :
         {flash::BitwiseOp::kAnd, flash::BitwiseOp::kOr,
          flash::BitwiseOp::kXor, flash::BitwiseOp::kXnor,
          flash::BitwiseOp::kNand, flash::BitwiseOp::kNor}) {
        runs.emplace_back(std::string(flash::opName(op)),
                          [op, mode = mode](ParaBitDevice &d) {
                              return d.bitwise(op, kX, kY, kOperandPages,
                                               mode);
                          });
        runs.emplace_back(std::string(flash::opName(op)) + " chain",
                          [op, mode = mode](ParaBitDevice &d) {
                              return d.bitwiseChain(op, {kX, kY, kZ},
                                                    kOperandPages, mode);
                          });
    }
    runs.emplace_back("NOT", [mode = mode](ParaBitDevice &d) {
        return d.bitwiseNot(kY, kOperandPages, mode);
    });

    for (const auto &[what, run] : runs) {
        ssd::SsdConfig timing_cfg = ssd::SsdConfig::tiny();
        timing_cfg.storeData = false;
        ParaBitDevice functional(ssd::SsdConfig::tiny());
        ParaBitDevice timing(timing_cfg);
        placeOperands(functional, pl);
        placeOperands(timing, pl);
        const ExecResult f = run(functional);
        const ExecResult t = run(timing);
        EXPECT_EQ(f.status, ExecStatus::kOk) << what;
        EXPECT_EQ(f.stats.end, t.stats.end) << what;
        EXPECT_EQ(f.stats.senseOps, t.stats.senseOps) << what;
        EXPECT_EQ(f.stats.pageReads, t.stats.pageReads) << what;
        EXPECT_EQ(f.stats.pagePrograms, t.stats.pagePrograms) << what;
        const auto fs = functional.ssd().scheduler().stats();
        const auto ts = timing.ssd().scheduler().stats();
        EXPECT_EQ(fs.submitted, ts.submitted) << what;
        EXPECT_EQ(fs.channelBusy, ts.channelBusy) << what;
        EXPECT_EQ(fs.dieBusy, ts.dieBusy) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPlacementsAllModes, FunctionalVsTimingTest,
    ::testing::Combine(
        ::testing::Values(Placement::kPair, Placement::kLsbSamePlane,
                          Placement::kMsbSamePlane, Placement::kCrossPlane,
                          Placement::kPlainWrite),
        ::testing::Values(Mode::kPreAllocated, Mode::kReAllocate,
                          Mode::kLocationFree)),
    [](const auto &info) {
        std::string n;
        switch (std::get<0>(info.param)) {
          case Placement::kPair: n = "Pair"; break;
          case Placement::kLsbSamePlane: n = "LsbSamePlane"; break;
          case Placement::kMsbSamePlane: n = "MsbSamePlane"; break;
          case Placement::kCrossPlane: n = "CrossPlane"; break;
          case Placement::kPlainWrite: n = "PlainWrite"; break;
        }
        switch (std::get<1>(info.param)) {
          case Mode::kPreAllocated: n += "_Pre"; break;
          case Mode::kReAllocate: n += "_ReAlloc"; break;
          case Mode::kLocationFree: n += "_LocFree"; break;
        }
        return n;
    });

TEST(Controller, PreAllocatedPairNeedsNoRealloc)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(1);
    const auto xs = randomPages(dev.ssd().config(), 2, rng);
    const auto ys = randomPages(dev.ssd().config(), 2, rng);
    dev.writeOperandPair(0, 100, xs, ys);
    const ExecResult r =
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 2, Mode::kPreAllocated);
    EXPECT_EQ(r.stats.reallocBytes, 0u);
    EXPECT_EQ(r.stats.pagePrograms, 0u);
    EXPECT_EQ(r.stats.pageReads, 0u);
}

TEST(Controller, ReAllocateAlwaysPaysTwoProgramsPerPage)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(2);
    const std::uint32_t pages = 4;
    const auto xs = randomPages(dev.ssd().config(), pages, rng);
    const auto ys = randomPages(dev.ssd().config(), pages, rng);
    dev.writeData(0, xs);
    dev.writeData(100, ys);
    const ExecResult r =
        dev.bitwise(flash::BitwiseOp::kOr, 0, 100, pages, Mode::kReAllocate);
    EXPECT_EQ(r.stats.pagePrograms, 2u * pages);
    EXPECT_EQ(r.stats.pageReads, 2u * pages);
    EXPECT_EQ(r.stats.reallocBytes,
              2u * pages * dev.ssd().config().geometry.pageBytes);
}

/** The block holding @p a. */
const flash::Block &
blockOf(ssd::SsdDevice &ssd, const flash::PhysPageAddr &a)
{
    return ssd.chipAt(a.channel, a.chip)
        .plane(a.die, a.plane)
        .block(a.block);
}

/** Every valid page of @p ssd whose stored payload is the object at
 *  @p bits (the same payload, not merely equal bits). */
std::vector<flash::PhysPageAddr>
pagesSharing(ssd::SsdDevice &ssd, const BitVector *bits)
{
    const flash::FlashGeometry &g = ssd.geometry();
    std::vector<flash::PhysPageAddr> out;
    for (ssd::PlaneIndex p = 0; p < g.planesTotal(); ++p) {
        flash::PhysPageAddr a = ssd::planeAddr(g, p);
        const flash::Plane &pl =
            ssd.chipAt(a.channel, a.chip).plane(a.die, a.plane);
        for (a.block = 0; a.block < g.blocksPerPlane; ++a.block) {
            const flash::Block *blk = pl.blockIfExists(a.block);
            for (a.wordline = 0; blk && a.wordline < g.wordlinesPerBlock;
                 ++a.wordline) {
                for (const bool msb : {false, true}) {
                    a.msb = msb;
                    if (blk->pageState(a.wordline, msb) ==
                            flash::PageState::kValid &&
                        blk->pageData(a.wordline, msb).get() == bits)
                        out.push_back(a);
                }
            }
        }
    }
    return out;
}

TEST(Controller, ReAllocPairSharesTheOperandPayloads)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    ssd::SsdDevice &ssd = dev.ssd();
    Rng rng(9);
    const auto x = randomPages(ssd.config(), 1, rng);
    const auto y = randomPages(ssd.config(), 1, rng);
    ASSERT_TRUE(dev.writeData(0, x));
    ASSERT_TRUE(dev.writeData(100, y));
    const flash::PhysPageAddr x_at = *ssd.ftl().lookup(0);
    const flash::PhysPageAddr y_at = *ssd.ftl().lookup(100);
    const BitVector *x_bits =
        blockOf(ssd, x_at).pageData(x_at.wordline, x_at.msb).get();
    const BitVector *y_bits =
        blockOf(ssd, y_at).pageData(y_at.wordline, y_at.msb).get();

    const ExecResult r =
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1, Mode::kReAllocate);
    ASSERT_EQ(r.status, ExecStatus::kOk);
    ASSERT_EQ(r.pages.at(0), goldenOp(flash::BitwiseOp::kAnd, x[0], y[0]));

    // The pair copy of X is a second page holding X's payload itself;
    // the MSB of its wordline holds Y's.
    std::vector<flash::PhysPageAddr> copies = pagesSharing(ssd, x_bits);
    ASSERT_EQ(copies.size(), 2u);
    const flash::PhysPageAddr copy =
        copies[0] == x_at ? copies[1] : copies[0];
    ASSERT_FALSE(copy == x_at);
    EXPECT_FALSE(copy.msb);
    const flash::Block &pair_blk = blockOf(ssd, copy);
    const flash::PageOob *oob = pair_blk.pageOob(copy.wordline, false);
    ASSERT_NE(oob, nullptr);
    EXPECT_EQ(static_cast<ssd::OobTag>(oob->tag), ssd::OobTag::kParabitPair);
    EXPECT_EQ(pair_blk.pageData(copy.wordline, true).get(), y_bits);
    const ssd::Lpn copy_lpn = oob->lpn;

    // Overwrite X and churn until GC erases X's old block: the copy
    // keeps X's bits (GC may move the copy too, sharing them again).
    ASSERT_TRUE(dev.writeData(0, randomPages(ssd.config(), 1, rng)));
    const std::uint32_t erases_before =
        ssd.chipAt(x_at.channel, x_at.chip)
            .blockEraseCount(x_at.die, x_at.plane, x_at.block);
    const auto filler = randomPages(ssd.config(), 1, rng);
    bool erased = false;
    for (int round = 0; round < 400 && !erased; ++round) {
        for (nvme::Lpn l = 200; l < 216; ++l)
            ASSERT_TRUE(dev.writeData(l, filler));
        erased = ssd.chipAt(x_at.channel, x_at.chip)
                     .blockEraseCount(x_at.die, x_at.plane, x_at.block) >
                 erases_before;
    }
    ASSERT_TRUE(erased) << "GC never erased the operand's old block";
    std::vector<ssd::PhysOp> ops;
    EXPECT_EQ(*ssd.ftl().readPage(copy_lpn, ops), x[0]);
}

TEST(Controller, LocationFreeNeedsNoProgramsWhenSamePlane)
{
    // Both operands pinned to one plane (shared bitlines): the
    // location-free op must be sense-only — no staging, no programs.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(3);
    const auto xs = randomPages(dev.ssd().config(), 1, rng);
    const auto ys = randomPages(dev.ssd().config(), 1, rng);
    dev.writeDataLsbOnlyInPlane(0, xs, 0);
    dev.writeDataLsbOnlyInPlane(100, ys, 0);
    const auto ax = dev.ssd().ftl().lookup(0);
    const auto ay = dev.ssd().ftl().lookup(100);
    ASSERT_TRUE(ax && ay);
    ASSERT_TRUE(ax->sameBitlines(*ay));
    const ExecResult r =
        dev.bitwise(flash::BitwiseOp::kXor, 0, 100, 1, Mode::kLocationFree);
    EXPECT_EQ(r.pages[0], xs[0] ^ ys[0]);
    EXPECT_EQ(r.stats.pagePrograms, 0u);
    EXPECT_EQ(r.stats.reallocBytes, 0u);
}

TEST(Controller, ChainFoldsLeftAcrossOperands)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(4);
    const std::uint32_t pages = 2;
    std::vector<std::vector<BitVector>> operands;
    std::vector<nvme::Lpn> lpns;
    for (int k = 0; k < 4; ++k) {
        operands.push_back(randomPages(dev.ssd().config(), pages, rng));
        const nvme::Lpn lpn = 100 * static_cast<nvme::Lpn>(k);
        // LSB-only layout so chained results can drop into free MSBs.
        dev.writeDataLsbOnly(lpn, operands.back());
        lpns.push_back(lpn);
    }
    const ExecResult r = dev.bitwiseChain(flash::BitwiseOp::kAnd, lpns, pages,
                                          Mode::kPreAllocated);
    ASSERT_EQ(r.pages.size(), pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
        BitVector expect = operands[0][p];
        for (int k = 1; k < 4; ++k)
            expect &= operands[static_cast<std::size_t>(k)][p];
        EXPECT_EQ(r.pages[p], expect) << "page " << p;
    }
}

TEST(Controller, ChainInPreAllocatedUsesSingleProgramSteps)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(5);
    const std::uint32_t pages = 1;
    std::vector<nvme::Lpn> lpns;
    for (int k = 0; k < 3; ++k) {
        const nvme::Lpn lpn = 10 * static_cast<nvme::Lpn>(k);
        dev.writeDataLsbOnly(lpn, randomPages(dev.ssd().config(), pages, rng));
        lpns.push_back(lpn);
    }
    const ExecResult r = dev.bitwiseChain(flash::BitwiseOp::kOr, lpns, pages,
                                          Mode::kPreAllocated);
    // First op: operands in different wordlines (LSB-only layout), so X
    // is read once and dropped into Y's free MSB (one program); the
    // chain step programs the buffered result likewise — never the
    // 2-programs-per-op of full reallocation, and never re-reading the
    // running result.
    EXPECT_LE(r.stats.pagePrograms, 2u);
    EXPECT_LE(r.stats.pageReads, 1u) << "chain result stays in the buffer";
}

TEST(Controller, ChainLocationFreeIsSenseOnly)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(6);
    std::vector<nvme::Lpn> lpns;
    std::vector<std::vector<BitVector>> operands;
    for (int k = 0; k < 3; ++k) {
        const nvme::Lpn lpn = 10 * static_cast<nvme::Lpn>(k);
        operands.push_back(randomPages(dev.ssd().config(), 1, rng));
        dev.writeDataLsbOnly(lpn, operands.back());
        lpns.push_back(lpn);
    }
    const ExecResult r = dev.bitwiseChain(flash::BitwiseOp::kXor, lpns, 1,
                                          Mode::kLocationFree);
    BitVector expect = operands[0][0] ^ operands[1][0] ^ operands[2][0];
    ASSERT_EQ(r.pages.size(), 1u);
    EXPECT_EQ(r.pages[0], expect);
}

TEST(Controller, StatsElapsedGrowsWithWork)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(7);
    const auto xs = randomPages(dev.ssd().config(), 4, rng);
    const auto ys = randomPages(dev.ssd().config(), 4, rng);
    dev.writeData(0, xs);
    dev.writeData(100, ys);
    const ExecResult one =
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1, Mode::kReAllocate);
    const ExecResult four =
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 4, Mode::kReAllocate);
    EXPECT_GT(four.stats.elapsed(), 0u);
    EXPECT_GE(four.stats.senseOps, 4 * one.stats.senseOps);
}

TEST(Controller, ResultWritebackPersistsInFlash)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(8);
    const auto xs = randomPages(dev.ssd().config(), 1, rng);
    const auto ys = randomPages(dev.ssd().config(), 1, rng);
    dev.writeData(0, xs);
    dev.writeData(10, ys);
    const nvme::Formula f =
        nvme::Formula::chain(flash::BitwiseOp::kXor, {0, 10}, 1);
    nvme::CmdParser parser(dev.ssd().geometry().pageBytes);
    const ExecResult r = dev.controller().executeBatches(
        parser.buildBatches(f), Mode::kReAllocate, dev.now(), true, 500);
    EXPECT_EQ(r.pages[0], xs[0] ^ ys[0]);
    EXPECT_EQ(dev.readData(500, 1)[0], xs[0] ^ ys[0]);
}

} // namespace
} // namespace parabit::core
