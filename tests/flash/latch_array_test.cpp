/**
 * @file
 * Page-wide latch kernel tests: whole-page execution must agree with the
 * host golden functions on random data, for every op in both modes and
 * at widths that end inside a word and inside a block, and sensing noise
 * must land exactly on the sensing and bitline it names.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "flash/latch_array.hpp"

namespace parabit::flash {
namespace {

BitVector
randomBits(std::size_t n, Rng &rng)
{
    BitVector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v.set(i, rng.chance(0.5));
    return v;
}

BitVector
golden(BitwiseOp op, const BitVector &lsb, const BitVector &msb)
{
    BitVector out(lsb.size());
    for (std::size_t i = 0; i < lsb.size(); ++i)
        out.set(i, opGolden(op, lsb.get(i), msb.get(i)));
    return out;
}

class LatchArrayOpTest : public ::testing::TestWithParam<BitwiseOp>
{
};

TEST_P(LatchArrayOpTest, CoLocatedMatchesGoldenOnRandomPages)
{
    const BitwiseOp op = GetParam();
    Rng rng(1000 + static_cast<std::uint64_t>(op));
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 64 + rng.below(512);
        const BitVector x = randomBits(n, rng); // LSB operand
        const BitVector y = randomBits(n, rng); // MSB operand
        EXPECT_EQ(executeCoLocated(op, x, y), golden(op, x, y))
            << opName(op) << " trial " << trial;
    }
}

TEST_P(LatchArrayOpTest, LocationFreeMatchesGoldenBothVariants)
{
    const BitwiseOp op = GetParam();
    Rng rng(2000 + static_cast<std::uint64_t>(op));
    for (auto variant :
         {LocFreeVariant::kMsbLsb, LocFreeVariant::kLsbLsb}) {
        const std::size_t n = 256;
        const BitVector m = randomBits(n, rng);
        const BitVector nn = randomBits(n, rng);
        const BitVector junk1 = randomBits(n, rng);
        const BitVector junk2 = randomBits(n, rng);
        // Golden convention: N plays the LSB role, M the MSB role.
        const BitVector expect = golden(op, nn, m);
        EXPECT_EQ(executeLocationFree(op, m, nn, &junk1, &junk2, {}, variant),
                  expect)
            << opName(op) << " variant "
            << (variant == LocFreeVariant::kMsbLsb ? "MsbLsb" : "LsbLsb");
    }
}

TEST_P(LatchArrayOpTest, CompanionDataDoesNotLeakIntoResult)
{
    const BitwiseOp op = GetParam();
    Rng rng(3000 + static_cast<std::uint64_t>(op));
    const std::size_t n = 128;
    const BitVector m = randomBits(n, rng);
    const BitVector nn = randomBits(n, rng);
    const BitVector junk_a = randomBits(n, rng);
    const BitVector junk_b = randomBits(n, rng);
    const BitVector r1 = executeLocationFree(op, m, nn, &junk_a, &junk_a);
    const BitVector r2 = executeLocationFree(op, m, nn, &junk_b, &junk_b);
    const BitVector r3 = executeLocationFree(op, m, nn, nullptr, nullptr);
    EXPECT_EQ(r1, r2) << opName(op);
    EXPECT_EQ(r1, r3) << opName(op);
}

TEST_P(LatchArrayOpTest, KernelMatchesGoldenAcrossBlockEdges)
{
    // Widths ending inside the first word, one bit short of a word, one
    // bit short of a 64-word block, exactly one block, inside the third
    // block, and a whole 8 KiB page.
    const BitwiseOp op = GetParam();
    Rng rng(4000 + static_cast<std::uint64_t>(op));
    for (const std::size_t n : {1u, 63u, 4095u, 4096u, 8262u, 65536u}) {
        const BitVector x = randomBits(n, rng);
        const BitVector y = randomBits(n, rng);
        EXPECT_EQ(executeCoLocated(op, x, y), golden(op, x, y))
            << opName(op) << " width " << n;

        const BitVector junk1 = randomBits(n, rng);
        const BitVector junk2 = randomBits(n, rng);
        const BitVector expect = golden(op, y, x); // N is the LSB role
        for (auto variant :
             {LocFreeVariant::kMsbLsb, LocFreeVariant::kLsbLsb}) {
            EXPECT_EQ(executeLocationFree(op, x, y, nullptr, nullptr, {},
                                          variant),
                      expect)
                << opName(op) << " width " << n << " null companions";
            EXPECT_EQ(executeLocationFree(op, x, y, &junk1, &junk2, {},
                                          variant),
                      expect)
                << opName(op) << " width " << n << " random companions";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, LatchArrayOpTest,
    ::testing::Values(BitwiseOp::kAnd, BitwiseOp::kOr, BitwiseOp::kXnor,
                      BitwiseOp::kNand, BitwiseOp::kNor, BitwiseOp::kXor,
                      BitwiseOp::kNotLsb, BitwiseOp::kNotMsb),
    [](const auto &info) {
        std::string n = opName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(LatchArray, EverySensingReceivesItsNoise)
{
    // Sensing k flips the even bitlines only.  Flipping SO on a bitline
    // during sensing k is the same as toggling that step's M7 inversion,
    // so the even bitlines must read the toggled program's result and
    // the odd ones the clean result.
    const MicroProgram &prog = coLocatedProgram(BitwiseOp::kXor);
    const int senses = prog.senseCount();
    ASSERT_GT(senses, 1);
    Rng rng(99);
    const std::size_t n = 4200; // two blocks, the second partial
    const BitVector x = randomBits(n, rng);
    const BitVector y = randomBits(n, rng);
    const WordlineData wl{&x, &y};
    BitVector clean(n);
    executeProgram(prog, wl, {}, {}, clean);

    int sense = 0;
    for (std::size_t step = 0; step < prog.steps.size(); ++step) {
        if (prog.steps[step].kind != MicroStep::Kind::kSense)
            continue;
        SenseNoise noise;
        for (int k = 0; k < senses; ++k) {
            if (k == sense)
                for (std::uint32_t bl = 0; bl < n; bl += 2)
                    noise.flips.push_back(bl);
            noise.flipsEnd.push_back(
                static_cast<std::uint32_t>(noise.flips.size()));
        }
        BitVector noisy(n);
        executeProgram(prog, wl, {}, {}, noisy, noise);

        MicroProgram toggled = prog;
        toggled.steps[step].soInverted = !toggled.steps[step].soInverted;
        BitVector inverted(n);
        executeProgram(toggled, wl, {}, {}, inverted);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(noisy.get(i), (i % 2 == 0 ? inverted : clean).get(i))
                << "sense " << sense << " bitline " << i;
        ++sense;
    }
    EXPECT_EQ(sense, senses);
}

TEST(LatchArray, InjectedSoFlipCorruptsExactlyThatBitline)
{
    // Flip SO bit 5 during the single AND sensing: only output bit 5
    // may differ from golden.
    const std::size_t n = 64;
    const BitVector x(n, true), y(n, true); // all cells in state E
    SenseNoise noise;
    noise.flips = {5};
    noise.flipsEnd = {1};
    const BitVector noisy = executeCoLocated(BitwiseOp::kAnd, x, y, noise);
    const BitVector clean = executeCoLocated(BitwiseOp::kAnd, x, y);
    const BitVector diff = noisy ^ clean;
    EXPECT_EQ(diff.popcount(), 1u);
    EXPECT_TRUE(diff.get(5));
}

TEST(LatchArray, LastStuckEntryOfABitlineWins)
{
    Rng rng(5);
    const std::size_t n = 4200;
    const BitVector x = randomBits(n, rng);
    const BitVector y = randomBits(n, rng);
    for (const bool last : {false, true}) {
        const std::vector<StuckBitline> both = {{4150, !last}, {4150, last}};
        const std::vector<StuckBitline> one = {{4150, last}};
        SenseNoise a, b;
        a.stuck = both;
        b.stuck = one;
        const BitVector ra = executeCoLocated(BitwiseOp::kXor, x, y, a);
        EXPECT_EQ(ra, executeCoLocated(BitwiseOp::kXor, x, y, b));
        // Every other bitline is untouched.
        BitVector diff = ra ^ executeCoLocated(BitwiseOp::kXor, x, y);
        diff.set(4150, false);
        EXPECT_EQ(diff.popcount(), 0u);
    }
}

TEST(LatchArray, WidthMismatchDiesInEveryBuild)
{
    const BitVector x(4096, true), y(4095, true);
    EXPECT_DEATH(executeCoLocated(BitwiseOp::kAnd, x, y), "width");
    BitVector out(4096);
    EXPECT_DEATH(executeProgram(locationFreeProgram(BitwiseOp::kXor), {},
                                WordlineData{&x, nullptr},
                                WordlineData{&y, nullptr}, out),
                 "width");
}

TEST(LatchArray, ChainedExecutionsReuseCircuit)
{
    // Run two different programs back-to-back into one result page; the
    // second result must be independent of the first (every word of the
    // page is rewritten, nothing accumulates).
    Rng rng(77);
    const std::size_t n = 128;
    const BitVector x = randomBits(n, rng);
    const BitVector y = randomBits(n, rng);
    BitVector out(n);
    executeProgram(coLocatedProgram(BitwiseOp::kXor), WordlineData{&x, &y},
                   {}, {}, out);
    executeProgram(coLocatedProgram(BitwiseOp::kAnd), WordlineData{&x, &y},
                   {}, {}, out);
    EXPECT_EQ(out, golden(BitwiseOp::kAnd, x, y));
}

} // namespace
} // namespace parabit::flash
