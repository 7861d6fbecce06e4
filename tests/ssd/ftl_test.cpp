/**
 * @file
 * FTL tests: mapping correctness, overwrite invalidation, the ParaBit
 * placement primitives, garbage collection with data preservation, and
 * write-amplification accounting.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ssd/ftl.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

struct FtlFixture
{
    FtlFixture()
    {
        cfg = SsdConfig::tiny();
        for (std::uint32_t i = 0; i < cfg.geometry.chips(); ++i)
            chips.emplace_back(cfg.geometry, cfg.storeData, cfg.errors, i);
        ftl = std::make_unique<Ftl>(cfg, chips);
    }

    BitVector
    randomPage(Rng &rng) const
    {
        BitVector v(cfg.geometry.pageBits());
        for (std::size_t i = 0; i < v.size(); ++i)
            v.set(i, rng.chance(0.5));
        return v;
    }

    SsdConfig cfg;
    std::vector<flash::Chip> chips;
    std::unique_ptr<Ftl> ftl;
};

TEST(Ftl, LogicalCapacityReflectsOverProvisioning)
{
    FtlFixture f;
    EXPECT_LT(f.ftl->logicalPages(), f.cfg.geometry.totalPages());
    EXPECT_GT(f.ftl->logicalPages(),
              static_cast<std::uint64_t>(0.9 * f.cfg.geometry.totalPages()));
}

TEST(Ftl, WriteReadRoundTrip)
{
    FtlFixture f;
    Rng rng(1);
    std::vector<PhysOp> ops;
    const BitVector d = f.randomPage(rng);
    f.ftl->writePage(7, &d, ops);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, PhysOp::Kind::kPageProgram);
    std::vector<PhysOp> rops;
    EXPECT_EQ(*f.ftl->readPage(7, rops), d);
    ASSERT_EQ(rops.size(), 1u);
    EXPECT_EQ(rops[0].kind, PhysOp::Kind::kPageRead);
}

TEST(Ftl, OverwriteInvalidatesOldPage)
{
    FtlFixture f;
    Rng rng(2);
    std::vector<PhysOp> ops;
    const BitVector d1 = f.randomPage(rng);
    const BitVector d2 = f.randomPage(rng);
    f.ftl->writePage(3, &d1, ops);
    const auto old = f.ftl->lookup(3);
    f.ftl->writePage(3, &d2, ops);
    const auto fresh = f.ftl->lookup(3);
    ASSERT_TRUE(old && fresh);
    EXPECT_NE(*old, *fresh);
    EXPECT_EQ(*f.ftl->readPage(3, ops), d2);
}

TEST(Ftl, TrimUnmaps)
{
    FtlFixture f;
    std::vector<PhysOp> ops;
    f.ftl->writePage(5, nullptr, ops);
    EXPECT_TRUE(f.ftl->lookup(5).has_value());
    f.ftl->trim(5);
    EXPECT_FALSE(f.ftl->lookup(5).has_value());
}

TEST(Ftl, ConsecutiveWritesStripeAcrossChannels)
{
    FtlFixture f;
    std::vector<PhysOp> ops;
    f.ftl->writePage(0, nullptr, ops);
    f.ftl->writePage(1, nullptr, ops);
    const auto a = f.ftl->lookup(0);
    const auto b = f.ftl->lookup(1);
    ASSERT_TRUE(a && b);
    EXPECT_NE(a->channel, b->channel);
}

TEST(Ftl, WritePairCoLocatesOperands)
{
    FtlFixture f;
    Rng rng(3);
    std::vector<PhysOp> ops;
    const BitVector x = f.randomPage(rng);
    const BitVector y = f.randomPage(rng);
    const auto pair = f.ftl->writePair(10, 11, flash::makePayload(x),
                                       flash::makePayload(y), ops);
    ASSERT_TRUE(pair.has_value());
    EXPECT_TRUE(pair->lsb.sameWordline(pair->msb));
    EXPECT_EQ(*f.ftl->lookup(10), pair->lsb);
    EXPECT_EQ(*f.ftl->lookup(11), pair->msb);
    EXPECT_EQ(*f.ftl->readPage(10, ops), x);
    EXPECT_EQ(*f.ftl->readPage(11, ops), y);
    EXPECT_EQ(f.ftl->parabitPagesWritten(), 2u);
}

TEST(Ftl, WriteLsbOnlyLeavesMsbFree)
{
    FtlFixture f;
    std::vector<PhysOp> ops;
    const auto addr_opt = f.ftl->writeLsbOnly(20, nullptr, ops);
    ASSERT_TRUE(addr_opt.has_value());
    const flash::PhysPageAddr addr = *addr_opt;
    EXPECT_FALSE(addr.msb);
    flash::PhysPageAddr msb = addr;
    msb.msb = true;
    EXPECT_EQ(f.ftl->chipAt(msb).pageState(
                  {msb.die, msb.plane, msb.block, msb.wordline, true}),
              flash::PageState::kFree);
}

TEST(Ftl, WriteIntoFreeMsbSucceedsOnceThenFails)
{
    FtlFixture f;
    Rng rng(4);
    std::vector<PhysOp> ops;
    const BitVector d = f.randomPage(rng);
    const auto lsb = f.ftl->writeLsbOnly(30, nullptr, ops);
    ASSERT_TRUE(lsb.has_value());
    EXPECT_TRUE(f.ftl->writeIntoFreeMsb(31, *lsb, flash::makePayload(d), ops));
    EXPECT_EQ(*f.ftl->readPage(31, ops), d);
    // The MSB is now occupied: a second drop must be refused.
    EXPECT_FALSE(f.ftl->writeIntoFreeMsb(32, *lsb, flash::makePayload(d), ops));
}

TEST(Ftl, GarbageCollectionPreservesLiveData)
{
    FtlFixture f;
    Rng rng(5);
    // Working set much smaller than the device; overwrite it many times
    // to force GC.
    const std::uint64_t live = 24;
    std::vector<BitVector> latest(live);
    std::vector<PhysOp> ops;
    for (int round = 0; round < 40; ++round) {
        for (std::uint64_t l = 0; l < live; ++l) {
            latest[l] = f.randomPage(rng);
            f.ftl->writePage(l, &latest[l], ops);
        }
    }
    EXPECT_GT(f.ftl->gcRuns(), 0u) << "working set should have forced GC";
    for (std::uint64_t l = 0; l < live; ++l) {
        std::vector<PhysOp> r;
        EXPECT_EQ(*f.ftl->readPage(l, r), latest[l]) << "lpn " << l;
    }
}

TEST(Ftl, WriteAmplificationAboveOneUnderGc)
{
    // Fill most of the device, then repeatedly rewrite only the odd
    // LPNs: every block holds a mix of still-valid even pages and
    // invalidated odd pages, so GC victims always carry live data that
    // must be relocated.  (A pure overwrite workload leaves blocks fully
    // invalid and correctly yields WAF = 1, which
    // GarbageCollectionReclaimsDeadBlocksForFree covers.)
    FtlFixture f;
    std::vector<PhysOp> ops;
    const std::uint64_t working_set = 600;
    for (std::uint64_t l = 0; l < working_set; ++l)
        f.ftl->writePage(l, nullptr, ops);
    for (int round = 0; round < 6; ++round)
        for (std::uint64_t l = 1; l < working_set; l += 2)
            f.ftl->writePage(l, nullptr, ops);
    EXPECT_GT(f.ftl->gcRuns(), 0u);
    EXPECT_GT(f.ftl->gcPagesWritten(), 0u);
    EXPECT_GT(f.ftl->writeAmplification(), 1.0);
    EXPECT_GT(f.ftl->blockErases(), 0u);
}

TEST(Ftl, GarbageCollectionReclaimsDeadBlocksForFree)
{
    // Pure overwrites leave victim blocks fully invalid: GC erases them
    // without relocation traffic, so WAF stays exactly 1.
    FtlFixture f;
    std::vector<PhysOp> ops;
    for (int round = 0; round < 60; ++round)
        for (std::uint64_t l = 0; l < 16; ++l)
            f.ftl->writePage(l, nullptr, ops);
    EXPECT_GT(f.ftl->blockErases(), 0u);
    EXPECT_EQ(f.ftl->gcPagesWritten(), 0u);
    EXPECT_DOUBLE_EQ(f.ftl->writeAmplification(), 1.0);
}

TEST(Ftl, GcOpsAreFlaggedForTiming)
{
    FtlFixture f;
    std::vector<PhysOp> ops;
    for (int round = 0; round < 60; ++round)
        for (std::uint64_t l = 0; l < 16; ++l)
            f.ftl->writePage(l, nullptr, ops);
    bool saw_gc_op = false, saw_erase = false;
    for (const auto &op : ops) {
        saw_gc_op |= op.forGc;
        saw_erase |= op.kind == PhysOp::Kind::kBlockErase;
    }
    EXPECT_TRUE(saw_gc_op);
    EXPECT_TRUE(saw_erase);
}

TEST(Ftl, TimingOnlyReadCarriesNoPayload)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.storeData = false;
    std::vector<flash::Chip> chips;
    for (std::uint32_t i = 0; i < cfg.geometry.chips(); ++i)
        chips.emplace_back(cfg.geometry, cfg.storeData, cfg.errors, i);
    Ftl ftl(cfg, chips);
    std::vector<PhysOp> ops;
    ASSERT_TRUE(ftl.writePage(3, nullptr, ops));
    std::vector<PhysOp> rops;
    EXPECT_EQ(ftl.readPage(3, rops), nullptr);
    ASSERT_EQ(rops.size(), 1u);
    EXPECT_EQ(rops[0].kind, PhysOp::Kind::kPageRead);
    EXPECT_EQ(rops[0].addr, ftl.lookup(3));
}

TEST(Ftl, TornPageReadsAsOnesInAFunctionalArray)
{
    FtlFixture f;
    Rng rng(4);
    std::vector<PhysOp> ops;
    const BitVector d = f.randomPage(rng);
    f.ftl->writePage(3, &d, ops);
    const flash::PhysPageAddr a = *f.ftl->lookup(3);
    f.ftl->chipAt(a).markTornWordline(
        {a.die, a.plane, a.block, a.wordline, a.msb});
    EXPECT_EQ(*f.ftl->readPage(3, ops),
              BitVector(f.cfg.geometry.pageBits(), true));
}

TEST(Ftl, UnmappedReadDies)
{
    FtlFixture f;
    std::vector<PhysOp> ops;
    EXPECT_DEATH(f.ftl->readPage(999, ops), "unmapped");
}

TEST(Ftl, LpnBeyondCapacityDies)
{
    FtlFixture f;
    std::vector<PhysOp> ops;
    EXPECT_DEATH(f.ftl->writePage(f.ftl->logicalPages(), nullptr, ops),
                 "beyond");
}

/**
 * The placement contract under retry exhaustion.  Each test writes its
 * LPNs, then makes every program on the device fail and calls one
 * placement entry point.  The call must report failure after exactly
 * kMaxProgramRetries attempts per placement (one retry charged each),
 * and the LPNs keep their old mapping and payload.
 */
class PlacementExhaustion : public ::testing::Test
{
  protected:
    PlacementExhaustion() : dev_(SsdConfig::tiny()) {}

    /** Write a seeded payload to @p lpn; returns the payload. */
    BitVector
    writeOld(Lpn lpn)
    {
        Rng rng(0x9E57 + lpn);
        BitVector d(dev_.geometry().pageBits());
        for (std::size_t i = 0; i < d.size(); ++i)
            d.set(i, rng.chance(0.5));
        std::vector<PhysOp> ops;
        EXPECT_TRUE(ftl().writePage(lpn, &d, ops));
        return d;
    }

    /** Arm a program failure on every attempt, on every plane; snapshot
     *  the retry counter. */
    void
    failEveryProgram()
    {
        for (PlaneIndex p = 0; p < dev_.geometry().planesTotal(); ++p) {
            FaultSpec s;
            s.cls = FaultClass::kProgramFailure;
            s.plane = p;
            s.failPeriod = 1;
            dev_.injectFault(s);
        }
        retriesBefore_ = ftl().programRetries();
    }

    /** Retries charged since failEveryProgram(). */
    std::uint64_t
    retriesCharged()
    {
        return ftl().programRetries() - retriesBefore_;
    }

    void
    expectIntact(Lpn lpn, const BitVector &old,
                 const flash::PhysPageAddr &where)
    {
        EXPECT_EQ(ftl().lookup(lpn), where) << "lpn " << lpn;
        std::vector<PhysOp> ops;
        EXPECT_EQ(*ftl().readPage(lpn, ops), old) << "lpn " << lpn;
    }

    Ftl &ftl() { return dev_.ftl(); }

    SsdDevice dev_;
    std::uint64_t retriesBefore_ = 0;
};

TEST_F(PlacementExhaustion, WritePage)
{
    const BitVector old = writeOld(40);
    const flash::PhysPageAddr where = *ftl().lookup(40);
    failEveryProgram();
    const BitVector fresh(dev_.geometry().pageBits(), true);
    std::vector<PhysOp> ops;
    EXPECT_FALSE(ftl().writePage(40, &fresh, ops));
    EXPECT_EQ(retriesCharged(),
              static_cast<std::uint64_t>(Ftl::kMaxProgramRetries));
    expectIntact(40, old, where);
}

TEST_F(PlacementExhaustion, WritePair)
{
    const BitVector old_x = writeOld(41);
    const BitVector old_y = writeOld(42);
    const flash::PhysPageAddr where_x = *ftl().lookup(41);
    const flash::PhysPageAddr where_y = *ftl().lookup(42);
    failEveryProgram();
    const BitVector fresh(dev_.geometry().pageBits(), true);
    std::vector<PhysOp> ops;
    EXPECT_FALSE(ftl().writePair(41, 42, flash::makePayload(fresh),
                                 flash::makePayload(fresh), ops)
                     .has_value());
    // One pair is one placement: a failed attempt costs one retry.
    EXPECT_EQ(retriesCharged(),
              static_cast<std::uint64_t>(Ftl::kMaxProgramRetries));
    expectIntact(41, old_x, where_x);
    expectIntact(42, old_y, where_y);
}

TEST_F(PlacementExhaustion, WriteLsbOnly)
{
    const BitVector old = writeOld(43);
    const flash::PhysPageAddr where = *ftl().lookup(43);
    failEveryProgram();
    const BitVector fresh(dev_.geometry().pageBits(), true);
    std::vector<PhysOp> ops;
    EXPECT_FALSE(
        ftl().writeLsbOnly(43, flash::makePayload(fresh), ops).has_value());
    EXPECT_EQ(retriesCharged(),
              static_cast<std::uint64_t>(Ftl::kMaxProgramRetries));
    expectIntact(43, old, where);
}

TEST_F(PlacementExhaustion, RelocatePage)
{
    const BitVector old = writeOld(44);
    const flash::PhysPageAddr where = *ftl().lookup(44);
    failEveryProgram();
    std::vector<PhysOp> ops;
    EXPECT_FALSE(ftl().relocatePage(44, flash::makePayload(old), ops));
    EXPECT_EQ(retriesCharged(),
              static_cast<std::uint64_t>(Ftl::kMaxProgramRetries));
    expectIntact(44, old, where);
}

TEST_F(PlacementExhaustion, RefreshWordline)
{
    // The first write of a fresh device lands alone on its wordline, so
    // the refresh relocates exactly one page.
    const BitVector old = writeOld(45);
    const flash::PhysPageAddr where = *ftl().lookup(45);
    failEveryProgram();
    std::vector<PhysOp> ops;
    EXPECT_FALSE(ftl().refreshWordline(where, ops));
    EXPECT_EQ(retriesCharged(),
              static_cast<std::uint64_t>(Ftl::kMaxProgramRetries));
    expectIntact(45, old, where);
}

} // namespace
} // namespace parabit::ssd
