/**
 * @file
 * Allocator tests: striping order, the three placement modes, free-pool
 * bookkeeping, and the paired/LSB-only invariants ParaBit relies on.
 */

#include <gtest/gtest.h>

#include <set>

#include "ssd/allocator.hpp"

namespace parabit::ssd {
namespace {

flash::FlashGeometry
geom()
{
    return flash::FlashGeometry::tiny(); // 2 ch x 2 chips x 2 planes
}

TEST(Allocator, NextPlaneVisitsChannelsRoundRobin)
{
    const auto g = geom();
    Allocator a(g);
    // Consecutive allocations must alternate channels before reusing
    // one — the bus-parallelism striping the paper relies on.
    std::vector<std::uint32_t> channels;
    for (int i = 0; i < 4; ++i)
        channels.push_back(planeCoord(g, a.nextPlane()).channel);
    EXPECT_EQ(channels[0], 0u);
    EXPECT_EQ(channels[1], 1u);
    EXPECT_EQ(channels[2], 0u);
    EXPECT_EQ(channels[3], 1u);
}

TEST(Allocator, NextPlaneEventuallyCoversAllPlanes)
{
    const auto g = geom();
    Allocator a(g);
    std::set<flash::PlaneIndex> seen;
    for (std::uint32_t i = 0; i < g.planesTotal(); ++i)
        seen.insert(a.nextPlane());
    EXPECT_EQ(seen.size(), g.planesTotal());
}

TEST(Allocator, InterleavedOrderIsLsbThenMsb)
{
    Allocator a(geom());
    const auto p0 = a.nextPage(0);
    const auto p1 = a.nextPage(0);
    const auto p2 = a.nextPage(0);
    ASSERT_TRUE(p0 && p1 && p2);
    EXPECT_FALSE(p0->msb);
    EXPECT_TRUE(p1->msb);
    EXPECT_TRUE(p0->sameWordline(*p1));
    EXPECT_FALSE(p2->msb);
    EXPECT_EQ(p2->wordline, p0->wordline + 1);
}

TEST(Allocator, PairSharesOneWordline)
{
    Allocator a(geom());
    const auto pair = a.nextPair(0);
    ASSERT_TRUE(pair);
    EXPECT_TRUE(pair->lsb.sameWordline(pair->msb));
    EXPECT_FALSE(pair->lsb.msb);
    EXPECT_TRUE(pair->msb.msb);
}

TEST(Allocator, PairAfterOddInterleavedSkipsPendingMsb)
{
    Allocator a(geom());
    const auto lone = a.nextPage(0); // LSB of WL0; MSB pending
    const auto pair = a.nextPair(0);
    ASSERT_TRUE(lone && pair);
    EXPECT_NE(pair->lsb.wordline, lone->wordline)
        << "a pair must claim a fresh wordline";
}

TEST(Allocator, LsbOnlyNeverTouchesMsb)
{
    const auto g = geom();
    Allocator a(g);
    for (std::uint32_t i = 0; i < g.wordlinesPerBlock; ++i) {
        const auto p = a.nextLsbOnly(0);
        ASSERT_TRUE(p);
        EXPECT_FALSE(p->msb);
        EXPECT_EQ(p->wordline, i % g.wordlinesPerBlock);
    }
}

TEST(Allocator, LsbOnlyAndInterleavedUseSeparateBlocks)
{
    Allocator a(geom());
    const auto interleaved = a.nextPage(0);
    const auto lsb_only = a.nextLsbOnly(0);
    ASSERT_TRUE(interleaved && lsb_only);
    EXPECT_NE(interleaved->block, lsb_only->block);
}

TEST(Allocator, ExhaustionReturnsNullopt)
{
    const auto g = geom();
    Allocator a(g);
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(g.blocksPerPlane) * g.pagesPerBlock();
    for (std::uint64_t i = 0; i < capacity; ++i)
        ASSERT_TRUE(a.nextPage(0)) << "page " << i;
    EXPECT_FALSE(a.nextPage(0));
    EXPECT_EQ(a.freeBlocks(0), 0u);
}

TEST(Allocator, ErasedBlocksReturnToPool)
{
    const auto g = geom();
    Allocator a(g);
    const std::uint32_t before = a.freeBlocks(0);
    auto p = a.nextPage(0);
    ASSERT_TRUE(p);
    EXPECT_EQ(a.freeBlocks(0), before - 1);
    // Fill and release a different block id back.
    a.noteErased(0, g.blocksPerPlane - 1);
    EXPECT_EQ(a.freeBlocks(0), before);
}

TEST(Allocator, ActiveBlockIsReported)
{
    Allocator a(geom());
    const auto p = a.nextPage(3);
    ASSERT_TRUE(p);
    EXPECT_TRUE(a.isActiveBlock(3, p->block));
    EXPECT_FALSE(a.isActiveBlock(3, p->block + 1));
}

} // namespace
} // namespace parabit::ssd
