/**
 * @file
 * Block lifecycle tests: page states, program-before-erase protection,
 * payload storage, erase counting, the free-page counter, and the
 * compact wordline record (OOB fields and flag bits per page).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "flash/block.hpp"

namespace parabit::flash {
namespace {

/** Free pages of @p b, counted from its page states. */
std::uint32_t
recountFree(const Block &b)
{
    std::uint32_t n = 0;
    for (std::uint32_t wl = 0; wl < b.wordlines(); ++wl)
        for (const bool msb : {false, true})
            n += b.pageState(wl, msb) == PageState::kFree ? 1 : 0;
    return n;
}

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

    ASSERT_TRUE(b.pageOob(2, false).has_value());
    EXPECT_EQ(b.pageOob(2, false)->lpn, 7u);
    EXPECT_EQ(b.pageOob(2, false)->seq, 100u);
    EXPECT_EQ(b.pageOob(2, false)->tag, 1);
    EXPECT_TRUE(b.pageOob(2, false)->scrambled);
    ASSERT_TRUE(b.pageOob(2, true).has_value());
    EXPECT_EQ(b.pageOob(2, true)->lpn, 9u);

    // Pages programmed without OOB, and free pages, expose none.
    b.program(0, false, nullptr);
    EXPECT_FALSE(b.pageOob(0, false).has_value());
    EXPECT_FALSE(b.pageOob(3, false).has_value());

    // A stale copy keeps its OOB (it loses recovery arbitration by
    // sequence number, it is not physically wiped)...
    b.invalidate(2, false);
    ASSERT_TRUE(b.pageOob(2, false).has_value());
    EXPECT_EQ(b.pageOob(2, false)->seq, 100u);

    // ...and erase clears it with the rest of the block.
    b.erase();
    EXPECT_FALSE(b.pageOob(2, false).has_value());
    EXPECT_FALSE(b.pageOob(2, true).has_value());
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
    EXPECT_TRUE(b.pageOob(1, false).has_value());
    EXPECT_EQ(b.pageState(1, false), PageState::kValid);

    // Erase heals the mark.
    b.erase();
    EXPECT_FALSE(b.torn(1));
    EXPECT_EQ(b.freePages(), 8u);
}

TEST(Block, FreePageCounterMatchesARecount)
{
    Block b(6, 8, true);
    const BitVector d = BitVector::fromString("11001100");
    const PageOob oob{7, 1, 1, false};
    const auto expect_recount = [&](std::uint32_t want) {
        EXPECT_EQ(b.freePages(), want);
        EXPECT_EQ(b.freePages(), recountFree(b));
    };
    expect_recount(12);
    for (int round = 0; round < 2; ++round) {
        b.program(0, false, makePayload(d), &oob);
        b.program(0, true, makePayload(d));
        b.program(3, false, nullptr);
        expect_recount(9);
        b.invalidate(0, true); // invalid pages are not free
        expect_recount(9);
        b.program(3, true, makePayload(d), &oob);
        b.markTorn(3); // a torn wordline keeps its page states
        expect_recount(8);
        b.program(5, false, makePayload(d));
        expect_recount(7);
        b.erase();
        expect_recount(12);
    }
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

TEST(Block, WordlineRecordIs56Bytes)
{
    EXPECT_EQ(sizeof(Block::Wordline), 56u);
}

TEST(Block, OobRoundTripsExtremeValues)
{
    Block b(4, 16, false);
    const PageOob lsb{~0ull - 1, UINT64_MAX, 0xFF, true};
    const PageOob msb{UINT64_MAX, ~0ull - 1, 0xFE, true};
    b.program(3, false, nullptr, &lsb);
    b.program(3, true, nullptr, &msb);
    for (const bool m : {false, true}) {
        const PageOob &want = m ? msb : lsb;
        const std::optional<PageOob> got = b.pageOob(3, m);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->lpn, want.lpn);
        EXPECT_EQ(got->seq, want.seq);
        EXPECT_EQ(got->tag, want.tag);
        EXPECT_EQ(got->scrambled, want.scrambled);
    }
}

TEST(Block, PageTagsAndScrambledBitsAreIndependent)
{
    Block b(4, 16, true);
    // Wordline 0: only the LSB page is scrambled; wordline 1: only the
    // MSB page.  Tags differ per page.
    const PageOob scrambled{1, 10, 3, true};
    const PageOob plain{2, 11, 5, false};
    b.program(0, false, nullptr, &scrambled);
    b.program(0, true, nullptr, &plain);
    b.program(1, false, nullptr, &plain);
    b.program(1, true, nullptr, &scrambled);

    EXPECT_TRUE(b.pageOob(0, false)->scrambled);
    EXPECT_FALSE(b.pageOob(0, true)->scrambled);
    EXPECT_FALSE(b.pageOob(1, false)->scrambled);
    EXPECT_TRUE(b.pageOob(1, true)->scrambled);
    EXPECT_EQ(b.pageOob(0, false)->tag, 3);
    EXPECT_EQ(b.pageOob(0, true)->tag, 5);
    EXPECT_EQ(b.pageOob(1, false)->tag, 5);
    EXPECT_EQ(b.pageOob(1, true)->tag, 3);

    // One page with OOB does not lend it to its partner.
    b.program(2, true, nullptr, &scrambled);
    b.program(2, false, nullptr);
    EXPECT_FALSE(b.pageOob(2, false).has_value());
    EXPECT_TRUE(b.pageOob(2, true).has_value());
}

TEST(Block, MarkTornKeepsBothOobsAndStates)
{
    Block b(4, 8, true);
    const PageOob lsb{40, 7, 1, true};
    const PageOob msb{41, 8, 2, false};
    b.program(2, false, makePayload(BitVector(8, false)), &lsb);
    b.program(2, true, makePayload(BitVector(8, true)), &msb);
    b.invalidate(2, false);
    b.markTorn(2);

    EXPECT_TRUE(b.torn(2));
    EXPECT_EQ(b.pageState(2, false), PageState::kInvalid);
    EXPECT_EQ(b.pageState(2, true), PageState::kValid);
    ASSERT_TRUE(b.pageOob(2, false).has_value());
    ASSERT_TRUE(b.pageOob(2, true).has_value());
    EXPECT_EQ(b.pageOob(2, false)->lpn, 40u);
    EXPECT_TRUE(b.pageOob(2, false)->scrambled);
    EXPECT_EQ(b.pageOob(2, true)->seq, 8u);
    EXPECT_EQ(b.pageOob(2, true)->tag, 2);
    EXPECT_FALSE(b.pageOob(2, true)->scrambled);
}

TEST(Block, EraseClearsOobTornDisturbAndProgramTick)
{
    Block b(4, 8, false);
    const PageOob oob{5, 6, 1, true};
    b.program(1, false, nullptr, &oob);
    b.program(1, true, nullptr, &oob);
    b.setProgramTick(1, 12345);
    b.chargeDisturb(0, 9);
    b.chargeDisturb(2, 4);
    b.markTorn(1);

    b.erase();
    for (std::uint32_t wl = 0; wl < b.wordlines(); ++wl) {
        EXPECT_FALSE(b.torn(wl));
        EXPECT_EQ(b.disturbCount(wl), 0u);
        EXPECT_EQ(b.programTick(wl), 0u);
        for (const bool msb : {false, true}) {
            EXPECT_EQ(b.pageState(wl, msb), PageState::kFree);
            EXPECT_FALSE(b.pageOob(wl, msb).has_value());
        }
    }
}

TEST(Block, TimingOnlyBlockHoldsNoPayloads)
{
    Block b(2, 8, false);
    const Payload bits = makePayload(BitVector::fromString("10101010"));
    b.program(0, false, bits);
    b.program(0, true, bits);
    EXPECT_EQ(b.pageData(0, false), nullptr);
    EXPECT_EQ(b.pageData(0, true), nullptr);
    EXPECT_EQ(b.pageData(1, false), nullptr);
    const WordlineData wd = b.wordlineData(0);
    EXPECT_EQ(wd.lsb, nullptr);
    EXPECT_EQ(wd.msb, nullptr);
    // The block keeps no reference of its own.
    EXPECT_EQ(bits.use_count(), 1);
}

} // namespace
} // namespace parabit::flash
