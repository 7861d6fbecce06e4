/**
 * @file
 * Majority-vote redundant-execution tests: the voting primitive itself,
 * error-rate reduction on a noisy chip, and cost accounting.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flash/read_retry.hpp"

namespace parabit::flash {
namespace {

TEST(MajorityVote, SingleRunPassesThrough)
{
    const BitVector v = BitVector::fromString("1010");
    EXPECT_EQ(majorityVote({v}), v);
}

TEST(MajorityVote, ThreeWayMajority)
{
    const BitVector a = BitVector::fromString("1100");
    const BitVector b = BitVector::fromString("1010");
    const BitVector c = BitVector::fromString("1001");
    // Per-bit: 1 appears 3,1,1,1 times -> majority 1000.
    EXPECT_EQ(majorityVote({a, b, c}).toString(), "1000");
}

TEST(MajorityVote, OutvotesSingleCorruption)
{
    Rng rng(1);
    BitVector clean(300);
    for (std::size_t i = 0; i < clean.size(); ++i)
        clean.set(i, rng.chance(0.5));
    BitVector corrupt = clean;
    corrupt.set(17, !corrupt.get(17));
    corrupt.set(250, !corrupt.get(250));
    EXPECT_EQ(majorityVote({clean, corrupt, clean}), clean);
}

TEST(MajorityVote, EvenVoteCountDies)
{
    const BitVector v(8);
    EXPECT_DEATH(majorityVote({v, v}), "odd");
}

TEST(MajorityVote, EmptyBallotDies)
{
    EXPECT_DEATH(majorityVote({}), "no runs");
}

TEST(MajorityVote, MismatchedRunSizesDie)
{
    const BitVector a(8), b(16);
    EXPECT_DEATH(majorityVote({a, b, a}), "mismatched");
}

TEST(LowMarginCount, EmptyBallotDies)
{
    EXPECT_DEATH(lowMarginCount({}, 1), "no runs");
}

TEST(LowMarginCount, EvenBallotDies)
{
    const BitVector v(8);
    EXPECT_DEATH(lowMarginCount({v, v}, 1), "odd");
}

TEST(LowMarginCount, MismatchedRunSizesDie)
{
    const BitVector a(8), b(16);
    EXPECT_DEATH(lowMarginCount({a, b, a}, 1), "mismatched");
}

TEST(LowMarginCount, UnanimousBallotHasFullMargin)
{
    const BitVector v = BitVector::fromString("10110100");
    EXPECT_EQ(lowMarginCount({v, v, v}, 3), 0u);
}

TEST(LowMarginCount, SplitVoteIsLowMargin)
{
    BitVector a = BitVector::fromString("00000000");
    BitVector b = a;
    b.set(3, true); // 2-1 split at bit 3: margin 1
    EXPECT_EQ(lowMarginCount({a, b, a}, 3), 1u);
    EXPECT_EQ(lowMarginCount({a, b, a}, 1), 0u);
}

TEST(LowMarginCount, SingleRunClampsToLogicalWidth)
{
    // k = 1 < min_margin: every logical bit is low-margin, but the
    // count must clamp to the vector's width, not the padded words.
    const BitVector v(10);
    EXPECT_EQ(lowMarginCount({v}, 3), 10u);
}

struct NoisyChipFixture
{
    NoisyChipFixture()
    {
        FlashGeometry g = FlashGeometry::tiny();
        g.pageBytes = 512; // larger pages: more bits per trial
        ErrorModelConfig ec;
        // Aggressive error rate so single executions err visibly.
        ec.observedErrorsAtRef = 40.0;
        ec.wordlineBits = static_cast<double>(g.pageBits());
        ec.refPeCycles = 1.0;
        ec.decadesOverLife = 0.0;
        chip = std::make_unique<Chip>(g, true, ec, 77);

        Rng rng(5);
        x = BitVector(g.pageBits());
        y = BitVector(g.pageBits());
        for (std::size_t i = 0; i < x.size(); ++i) {
            x.set(i, rng.chance(0.5));
            y.set(i, rng.chance(0.5));
        }
        chip->programPage({0, 0, 0, 0, 0, 0, false}, makePayload(x));
        chip->programPage({0, 0, 0, 0, 0, 0, true}, makePayload(y));
    }

    std::unique_ptr<Chip> chip;
    BitVector x, y;
};

TEST(ReadRetry, VotingReducesErrorsCoLocated)
{
    NoisyChipFixture f;
    std::int64_t single = 0, voted = 0;
    for (int t = 0; t < 60; ++t) {
        const VotedResult one = opCoLocatedVoted(
            *f.chip, BitwiseOp::kXor, {0, 0, 0, 0, 0, 0, false}, 1);
        const VotedResult three = opCoLocatedVoted(
            *f.chip, BitwiseOp::kXor, {0, 0, 0, 0, 0, 0, false}, 3);
        single += one.totalBitErrors;
        voted += three.totalBitErrors;
    }
    EXPECT_GT(single, 0) << "error model must be active";
    EXPECT_LT(voted * 3, single)
        << "3-way voting should cut the error rate by far more than 3x";
}

TEST(ReadRetry, VotedResultMatchesGoldenWhenErrorsAreRare)
{
    NoisyChipFixture f;
    const VotedResult v = opCoLocatedVoted(*f.chip, BitwiseOp::kAnd,
                                           {0, 0, 0, 0, 0, 0, false}, 5);
    EXPECT_EQ(v.votes, 5);
    // AND has a single sensing: with 5-way voting residual errors are
    // vanishingly rare at this page size.
    EXPECT_LE(v.totalBitErrors, 1);
    const BitVector diff = v.out ^ (f.x & f.y);
    EXPECT_LE(diff.popcount(), 1u);
}

TEST(ReadRetry, LocationFreeVotingWorks)
{
    FlashGeometry g = FlashGeometry::tiny();
    ErrorModelConfig ec;
    ec.observedErrorsAtRef = 10.0;
    ec.wordlineBits = static_cast<double>(g.pageBits());
    ec.refPeCycles = 1.0;
    ec.decadesOverLife = 0.0;
    Chip chip(g, true, ec, 3);
    Rng rng(9);
    BitVector m(g.pageBits()), n(g.pageBits());
    for (std::size_t i = 0; i < m.size(); ++i) {
        m.set(i, rng.chance(0.5));
        n.set(i, rng.chance(0.5));
    }
    chip.programPage({0, 0, 0, 0, 0, 0, true}, makePayload(m));
    chip.programPage({0, 0, 0, 0, 1, 0, false}, makePayload(n));
    std::int64_t single = 0, voted = 0;
    for (int t = 0; t < 40; ++t) {
        single += opLocationFreeVoted(chip, BitwiseOp::kXor,
                                      {0, 0, 0, 0, 0, 0, true},
                                      {0, 0, 0, 0, 1, 0, false}, 1)
                      .totalBitErrors;
        voted += opLocationFreeVoted(chip, BitwiseOp::kXor,
                                     {0, 0, 0, 0, 0, 0, true},
                                     {0, 0, 0, 0, 1, 0, false}, 3)
                     .totalBitErrors;
    }
    EXPECT_GT(single, 0);
    EXPECT_LT(voted, single);
}

} // namespace
} // namespace parabit::flash
