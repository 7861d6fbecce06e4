/**
 * @file
 * Block lifecycle tests: page states, program-before-erase protection,
 * payload storage, erase counting.
 */

#include <gtest/gtest.h>

#include "flash/block.hpp"

namespace parabit::flash {
namespace {

TEST(Block, StartsFree)
{
    Block b(8, 64, true);
    EXPECT_EQ(b.wordlines(), 8u);
    EXPECT_EQ(b.eraseCount(), 0u);
    EXPECT_EQ(b.validPages(), 0u);
    EXPECT_EQ(b.freePages(), 16u);
    for (std::uint32_t wl = 0; wl < 8; ++wl) {
        EXPECT_EQ(b.pageState(wl, false), PageState::kFree);
        EXPECT_EQ(b.pageState(wl, true), PageState::kFree);
    }
}

TEST(Block, ProgramStoresDataAndChangesState)
{
    Block b(4, 16, true);
    const BitVector d = BitVector::fromString("1010101010101010");
    b.program(1, false, makePayload(d));
    EXPECT_EQ(b.pageState(1, false), PageState::kValid);
    EXPECT_EQ(b.pageState(1, true), PageState::kFree);
    ASSERT_NE(b.pageData(1, false), nullptr);
    EXPECT_EQ(*b.pageData(1, false), d);
    EXPECT_EQ(b.validPages(), 1u);
    EXPECT_EQ(b.freePages(), 7u);
}

TEST(Block, TimingOnlyModeKeepsNoPayload)
{
    Block b(4, 16, false);
    const BitVector d(16, true);
    b.program(0, false, makePayload(d));
    EXPECT_EQ(b.pageState(0, false), PageState::kValid);
    EXPECT_EQ(b.pageData(0, false), nullptr);
}

TEST(Block, ProgramTwiceDies)
{
    Block b(4, 16, true);
    b.program(0, false, nullptr);
    EXPECT_DEATH(b.program(0, false, nullptr), "not free");
}

TEST(Block, InvalidateRequiresValid)
{
    Block b(4, 16, true);
    EXPECT_DEATH(b.invalidate(0, false), "not valid");
    b.program(0, false, nullptr);
    b.invalidate(0, false);
    EXPECT_EQ(b.pageState(0, false), PageState::kInvalid);
    EXPECT_EQ(b.validPages(), 0u);
}

TEST(Block, EraseResetsEverythingAndCounts)
{
    Block b(4, 16, true);
    const BitVector d(16, true);
    b.program(0, false, makePayload(d));
    b.program(0, true, makePayload(d));
    b.program(1, false, makePayload(d));
    b.invalidate(1, false);
    b.erase();
    EXPECT_EQ(b.eraseCount(), 1u);
    EXPECT_EQ(b.validPages(), 0u);
    EXPECT_EQ(b.freePages(), 8u);
    EXPECT_EQ(b.pageData(0, false), nullptr);
    b.erase();
    EXPECT_EQ(b.eraseCount(), 2u);
}

TEST(Block, OobAttachesPerPageAndSurvivesInvalidate)
{
    Block b(4, 16, true);
    const PageOob lsb_oob{7, 100, 1, true};
    const PageOob msb_oob{9, 101, 2, false};
    b.program(2, false, nullptr, &lsb_oob);
    b.program(2, true, nullptr, &msb_oob);

    ASSERT_NE(b.pageOob(2, false), nullptr);
    EXPECT_EQ(b.pageOob(2, false)->lpn, 7u);
    EXPECT_EQ(b.pageOob(2, false)->seq, 100u);
    EXPECT_EQ(b.pageOob(2, false)->tag, 1);
    EXPECT_TRUE(b.pageOob(2, false)->scrambled);
    ASSERT_NE(b.pageOob(2, true), nullptr);
    EXPECT_EQ(b.pageOob(2, true)->lpn, 9u);

    // Pages programmed without OOB, and free pages, expose none.
    b.program(0, false, nullptr);
    EXPECT_EQ(b.pageOob(0, false), nullptr);
    EXPECT_EQ(b.pageOob(3, false), nullptr);

    // A stale copy keeps its OOB (it loses recovery arbitration by
    // sequence number, it is not physically wiped)...
    b.invalidate(2, false);
    ASSERT_NE(b.pageOob(2, false), nullptr);
    EXPECT_EQ(b.pageOob(2, false)->seq, 100u);

    // ...and erase clears it with the rest of the block.
    b.erase();
    EXPECT_EQ(b.pageOob(2, false), nullptr);
    EXPECT_EQ(b.pageOob(2, true), nullptr);
}

TEST(Block, MarkTornDropsBothPayloadsOfTheWordline)
{
    Block b(4, 8, true);
    const BitVector lsb = BitVector::fromString("11110000");
    const PageOob oob{3, 50, 1, false};
    b.program(1, false, makePayload(lsb), &oob);

    // Power cut mid-MSB-program: the shared cells corrupt the paired
    // LSB too, so both payloads are gone while states/OOB remain for
    // recovery to inspect (and then discard the wordline).
    b.program(1, true, makePayload(lsb), &oob);
    b.markTorn(1);
    EXPECT_TRUE(b.torn(1));
    EXPECT_FALSE(b.torn(0));
    EXPECT_EQ(b.pageData(1, false), nullptr);
    EXPECT_EQ(b.pageData(1, true), nullptr);
    EXPECT_NE(b.pageOob(1, false), nullptr);
    EXPECT_EQ(b.pageState(1, false), PageState::kValid);

    // Erase heals the mark.
    b.erase();
    EXPECT_FALSE(b.torn(1));
    EXPECT_EQ(b.freePages(), 8u);
}

TEST(Block, WordlineDataExposesBothPages)
{
    Block b(2, 8, true);
    const BitVector lsb = BitVector::fromString("11110000");
    const BitVector msb = BitVector::fromString("10101010");
    b.program(0, false, makePayload(lsb));
    b.program(0, true, makePayload(msb));
    const WordlineData wd = b.wordlineData(0);
    ASSERT_NE(wd.lsb, nullptr);
    ASSERT_NE(wd.msb, nullptr);
    EXPECT_EQ(*wd.lsb, lsb);
    EXPECT_EQ(*wd.msb, msb);
    // Unprogrammed wordline: both absent.
    const WordlineData empty = b.wordlineData(1);
    EXPECT_EQ(empty.lsb, nullptr);
    EXPECT_EQ(empty.msb, nullptr);
}

} // namespace
} // namespace parabit::flash
