/**
 * @file
 * Differential test of the page-wide latch kernel: executeProgram()'s
 * truth-table pass and noisy-bitline replay must agree bit for bit with
 * the 64-word block walk it replaced (block_kernel_reference.hpp), and
 * its count of changed bitlines must equal the popcount of the block
 * walk's noisy result against its clean one (what Chip::runOp reports
 * as bit_errors).  Random programs sense every wordline select with
 * either SO polarity; shipped programs run in every mode; noise covers
 * duplicate flips, repeated stuck entries, flips on stuck bitlines, the
 * last partial word and more than 64 noisy bitlines in one page.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "block_kernel_reference.hpp"
#include "common/rng.hpp"
#include "flash/latch_array.hpp"

namespace parabit::flash {
namespace {

constexpr std::size_t kWidths[] = {1, 63, 64, 65, 4095, 4096, 4097, 65536};

BitVector
randomBits(std::size_t n, Rng &rng)
{
    BitVector v(n);
    for (auto &w : v.words())
        w = rng.next();
    v.maskTail();
    return v;
}

/**
 * A random control program: cross_model_fuzz_test's generator, widened
 * to sense the M and N wordlines and the VREAD0 re-init (kNone), with
 * or without the M7 inversion.
 */
MicroProgram
randomProgram(Rng &rng)
{
    MicroProgram p;
    p.op = BitwiseOp::kAnd; // label only; semantics come from the steps
    p.steps.push_back(rng.chance(0.5) ? MicroStep::initNormal()
                                      : MicroStep::initInverted());
    const int body = 1 + static_cast<int>(rng.below(10));
    for (int s = 0; s < body; ++s) {
        if (rng.chance(0.25)) {
            p.steps.push_back(MicroStep::transfer());
        } else {
            const auto v = static_cast<VRead>(rng.below(4));
            const auto pulse =
                rng.chance(0.5) ? LatchPulse::kM1 : LatchPulse::kM2;
            const auto wl = static_cast<WordlineSel>(rng.below(4));
            p.steps.push_back(MicroStep::sense(v, pulse, wl, rng.chance(0.5)));
        }
    }
    p.steps.push_back(MicroStep::transfer());
    return p;
}

/** Flips for every sensing of @p prog, listing each drawn bitline twice
 *  with probability @p dup so that some cancel. */
SenseNoise
randomFlips(const MicroProgram &prog, std::size_t width, std::size_t per,
            double dup, Rng &rng)
{
    SenseNoise noise;
    for (int k = 0; k < prog.senseCount(); ++k) {
        const std::size_t count = rng.below(per + 1);
        for (std::size_t i = 0; i < count; ++i) {
            const auto bl = static_cast<std::uint32_t>(rng.below(width));
            noise.flips.push_back(bl);
            if (rng.chance(dup))
                noise.flips.push_back(bl);
        }
        noise.flipsEnd.push_back(
            static_cast<std::uint32_t>(noise.flips.size()));
    }
    return noise;
}

struct Pages
{
    WordlineData self, m, n;
};

/**
 * Run @p prog through both kernels and require the same result page,
 * and a changed-bitline count equal to the block walk's noisy-vs-clean
 * popcount.  The table kernel writes into a page of garbage, so a word
 * it skipped would show.
 */
void
expectSameAsBlockWalk(const MicroProgram &prog, const Pages &pg,
                      std::size_t width, const SenseNoise &noise,
                      const std::string &label)
{
    BitVector ref(width), ref_clean(width);
    reference::executeProgram(prog, pg.self, pg.m, pg.n, ref, noise);
    reference::executeProgram(prog, pg.self, pg.m, pg.n, ref_clean);

    BitVector out(width);
    for (auto &w : out.words())
        w = 0x5A5A'C3C3'0F0F'9696;
    const std::size_t changed =
        executeProgram(prog, pg.self, pg.m, pg.n, out, noise);
    ASSERT_EQ(out, ref) << label;
    EXPECT_EQ(changed, (ref ^ ref_clean).popcount()) << label;
}

TEST(LatchKernelDiff, RandomProgramsMatchBlockWalk)
{
    Rng rng(20260);
    for (const std::size_t width : kWidths) {
        const int trials = width >= 65536 ? 20 : 120;
        for (int trial = 0; trial < trials; ++trial) {
            const MicroProgram prog = randomProgram(rng);
            // Six pages, each absent (all-ones) a quarter of the time.
            std::vector<BitVector> store;
            store.reserve(6);
            const auto page = [&]() -> const BitVector * {
                if (rng.chance(0.25))
                    return nullptr;
                store.push_back(randomBits(width, rng));
                return &store.back();
            };
            Pages pg;
            pg.self = {page(), page()};
            pg.m = {page(), page()};
            pg.n = {page(), page()};

            SenseNoise noise;
            if (rng.chance(0.7))
                noise = randomFlips(prog, width, 80, 0.2, rng);
            std::vector<StuckBitline> stuck;
            if (rng.chance(0.5)) {
                stuck.resize(rng.below(6));
                for (StuckBitline &s : stuck)
                    s = {rng.below(width), rng.chance(0.5)};
                if (!stuck.empty() && rng.chance(0.5))
                    stuck.push_back({stuck.front().bitline,
                                     !stuck.front().value});
            }
            noise.stuck = stuck;
            expectSameAsBlockWalk(prog, pg, width, noise,
                                  "width " + std::to_string(width) +
                                      " trial " + std::to_string(trial) +
                                      "\n" + prog.describe());
        }
    }
}

TEST(LatchKernelDiff, ShippedProgramsMatchBlockWalkInEveryMode)
{
    Rng rng(4711);
    for (const std::size_t width : kWidths) {
        const BitVector x = randomBits(width, rng);
        const BitVector y = randomBits(width, rng);
        const BitVector junk1 = randomBits(width, rng);
        const BitVector junk2 = randomBits(width, rng);
        for (int o = 0; o < kNumBitwiseOps; ++o) {
            const auto op = static_cast<BitwiseOp>(o);
            const std::string name =
                std::string(opName(op)) + " width " + std::to_string(width);
            const MicroProgram &co = coLocatedProgram(op);
            expectSameAsBlockWalk(co, {{&x, &y}, {}, {}}, width, {},
                                  name + " co-located");
            expectSameAsBlockWalk(co, {{&x, &y}, {}, {}}, width,
                                  randomFlips(co, width, 40, 0.3, rng),
                                  name + " co-located noisy");
            for (const auto variant :
                 {LocFreeVariant::kMsbLsb, LocFreeVariant::kLsbLsb}) {
                const MicroProgram &lf = locationFreeProgram(op, variant);
                const bool m_in_msb = variant == LocFreeVariant::kMsbLsb;
                for (const bool companions : {false, true}) {
                    const BitVector *mc = companions ? &junk1 : nullptr;
                    const BitVector *nc = companions ? &junk2 : nullptr;
                    const Pages pg{{},
                                   {m_in_msb ? mc : &x, m_in_msb ? &x : mc},
                                   {&y, nc}};
                    const std::string label =
                        name + (m_in_msb ? " MsbLsb" : " LsbLsb") +
                        (companions ? " random" : " null") + " companions";
                    expectSameAsBlockWalk(lf, pg, width, {}, label);
                    expectSameAsBlockWalk(lf, pg, width,
                                          randomFlips(lf, width, 40, 0.3, rng),
                                          label + " noisy");
                }
            }
        }
    }
}

/** @p noise with one flip range per sensing of @p prog: extra ranges
 *  dropped, missing ones empty. */
SenseNoise
fitTo(SenseNoise noise, const MicroProgram &prog)
{
    if (!noise.flipsEnd.empty())
        noise.flipsEnd.resize(static_cast<std::size_t>(prog.senseCount()),
                              noise.flipsEnd.back());
    return noise;
}

/** Hand-built noise run through every op, co-located and location-free,
 *  on a page whose last word is partial. */
class NoiseShapes : public ::testing::Test
{
  protected:
    static constexpr std::size_t kWidth = 4161; // 65 words

    NoiseShapes()
        : rng_(99), x_(randomBits(kWidth, rng_)), y_(randomBits(kWidth, rng_))
    {
    }

    void check(const SenseNoise &noise, const std::string &label)
    {
        for (int o = 0; o < kNumBitwiseOps; ++o) {
            const auto op = static_cast<BitwiseOp>(o);
            const MicroProgram &co = coLocatedProgram(op);
            expectSameAsBlockWalk(co, {{&x_, &y_}, {}, {}}, kWidth,
                                  fitTo(noise, co), label + " " + opName(op));
            const MicroProgram &lf = locationFreeProgram(op);
            expectSameAsBlockWalk(lf, {{}, {nullptr, &x_}, {&y_, &x_}},
                                  kWidth, fitTo(noise, lf),
                                  label + " LocFree " + opName(op));
        }
    }

    Rng rng_;
    BitVector x_, y_;
};

TEST_F(NoiseShapes, PerSensingFlipsWithDuplicates)
{
    // Sensing 0 flips 7 three times (net one flip) and 70 twice (none);
    // sensing 1 flips 7 again, so it flips at two sensings.
    SenseNoise noise;
    noise.flips = {7, 70, 7, 7, 70, 7, 4000};
    noise.flipsEnd = {5, 6, 7};
    check(noise, "duplicates");
}

TEST_F(NoiseShapes, StuckListRepeatsABitlineWithDifferentValues)
{
    for (const bool last : {false, true}) {
        const std::vector<StuckBitline> stuck = {
            {130, !last}, {9, true}, {130, last}, {9, false}, {130, !last},
            {130, last}};
        SenseNoise noise;
        noise.stuck = stuck;
        check(noise, std::string("stuck, last ") + (last ? "1" : "0"));
    }
}

TEST_F(NoiseShapes, FlipAndPinOnOneBitline)
{
    // The pin lands after the flip at every sensing, so it wins; the
    // flip on 12 alone changes its bitline.
    const std::vector<StuckBitline> stuck = {{11, true}, {64, false}};
    SenseNoise noise;
    noise.flips = {11, 64, 12, 11};
    noise.flipsEnd = {2, 3, 4};
    noise.stuck = stuck;
    check(noise, "flip and pin");
}

TEST_F(NoiseShapes, NoiseInTheLastPartialWord)
{
    const std::vector<StuckBitline> stuck = {{kWidth - 1, false},
                                             {kWidth - 2, true}};
    SenseNoise noise;
    noise.flips = {kWidth - 1, kWidth - 3, 4096, kWidth - 3};
    noise.flipsEnd = {1, 3, 4};
    noise.stuck = stuck;
    check(noise, "last word");
}

TEST_F(NoiseShapes, MoreThan64NoisyBitlinesInOnePage)
{
    SenseNoise noise;
    for (std::uint32_t k = 0; k < 3; ++k) {
        for (std::uint32_t i = 0; i < 150; ++i)
            noise.flips.push_back(static_cast<std::uint32_t>(
                rng_.below(kWidth)));
        noise.flipsEnd.push_back(
            static_cast<std::uint32_t>(noise.flips.size()));
    }
    std::vector<StuckBitline> stuck(90);
    for (StuckBitline &s : stuck)
        s = {rng_.below(kWidth), rng_.chance(0.5)};
    noise.stuck = stuck;
    check(noise, "many");
}

} // namespace
} // namespace parabit::flash
