/**
 * @file
 * Plane block-table tests: blocks appear on first touch, keep their
 * identity, stay put while the table grows, and stop at the plane's
 * last block.
 */

#include <gtest/gtest.h>

#include "flash/plane.hpp"

namespace parabit::flash {
namespace {

/** tiny() with enough blocks that reaching the last one regrows the
 *  table several times. */
FlashGeometry
wideGeometry()
{
    FlashGeometry g = FlashGeometry::tiny();
    g.blocksPerPlane = 4096;
    return g;
}

TEST(Plane, BlockIfExistsIsNullUntilTouched)
{
    Plane pl(wideGeometry(), false);
    EXPECT_EQ(pl.blockIfExists(0), nullptr);
    EXPECT_EQ(pl.blockIfExists(9), nullptr);

    Block &b9 = pl.block(9);
    EXPECT_EQ(pl.blockIfExists(9), &b9);
    // Below the highest touched block, but never touched itself.
    EXPECT_EQ(pl.blockIfExists(3), nullptr);
    // Beyond the highest touched block.
    EXPECT_EQ(pl.blockIfExists(10), nullptr);
    EXPECT_EQ(pl.blockIfExists(4095), nullptr);
}

TEST(Plane, BlockIsTheSameObjectOnEveryCall)
{
    Plane pl(wideGeometry(), false);
    Block &first = pl.block(5);
    first.program(0, false, nullptr);
    pl.block(6);
    pl.block(700);
    EXPECT_EQ(&pl.block(5), &first);
    EXPECT_EQ(pl.block(5).pageState(0, false), PageState::kValid);
}

TEST(Plane, ABlockReferenceSurvivesTableGrowth)
{
    const FlashGeometry g = wideGeometry();
    Plane pl(g, true);
    Block &b0 = pl.block(0);
    pl.block(g.blocksPerPlane - 1); // grows the table to its full size
    // Use the old reference after the growth (an ASan build catches a
    // block that moved).
    b0.program(1, true, makePayload(BitVector(g.pageBits(), true)));
    EXPECT_EQ(b0.validPages(), 1u);
    EXPECT_EQ(pl.blockIfExists(0), &b0);
    EXPECT_EQ(pl.block(0).pageState(1, true), PageState::kValid);
}

TEST(Plane, BlockPastThePlaneDies)
{
    const FlashGeometry g = wideGeometry();
    Plane pl(g, false);
    EXPECT_DEATH(pl.block(g.blocksPerPlane), "out of range");
}

} // namespace
} // namespace parabit::flash
