/**
 * @file
 * Error-model tests: calibration anchor, exponential growth, injection
 * statistics (the basis of the Fig 17 reproduction).
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.hpp"
#include "flash/error_model.hpp"

namespace parabit::flash {
namespace {

TEST(ErrorModel, IdealInjectsNothing)
{
    ErrorModel em(ErrorModelConfig::ideal());
    EXPECT_FALSE(em.enabled());
    EXPECT_EQ(em.rberPerSense(5000), 0.0);
    Rng rng(1);
    std::vector<std::uint32_t> flips;
    EXPECT_EQ(em.drawFlips(65536, 5000, rng, 1.0, flips), 0);
    EXPECT_TRUE(flips.empty());
    EXPECT_EQ(rng.next(), Rng(1).next()); // no RNG draw either
}

TEST(ErrorModel, AnchorMatchesPaperFig17)
{
    // At 5K P/E, 7 sensings over a 65536-bit wordline must average
    // 0.945 *observed* output errors; with the measured propagation
    // survival of 0.404, the raw injected-flip mean is 0.945 / 0.404.
    ErrorModel em;
    const double rber = em.rberPerSense(5000);
    EXPECT_NEAR(rber * 0.404 * 7 * 65536, 0.945, 1e-9);
}

TEST(ErrorModel, GrowsExponentiallyWithPe)
{
    ErrorModel em;
    const double r0 = em.rberPerSense(0);
    const double r5k = em.rberPerSense(5000);
    EXPECT_NEAR(r5k / r0, 10.0, 1e-6); // one decade over life (default)
    // Midpoint: half a decade.
    EXPECT_NEAR(em.rberPerSense(2500) / r0, std::sqrt(10.0), 1e-6);
}

TEST(ErrorModel, InjectionMeanMatchesRate)
{
    ErrorModel em;
    Rng rng(42);
    const int trials = 4000;
    std::int64_t flips = 0;
    std::vector<std::uint32_t> drawn;
    for (int t = 0; t < trials; ++t)
        flips += em.drawFlips(65536, 5000, rng, 1.0, drawn);
    EXPECT_EQ(drawn.size(), static_cast<std::size_t>(flips));
    // Expected flips per injection: 65536 * rber(5000)
    // = 0.945 / (0.404 * 7) = 0.334.
    const double mean = static_cast<double>(flips) / trials;
    EXPECT_NEAR(mean, 0.945 / (0.404 * 7.0), 0.03);
}

TEST(ErrorModel, InjectionActuallyFlipsBits)
{
    ErrorModelConfig cfg;
    cfg.observedErrorsAtRef = 0.01 * cfg.propagationSurvival *
                              cfg.refSensings * cfg.wordlineBits;
    cfg.refPeCycles = 100;
    ErrorModel em(cfg);
    Rng rng(7);
    std::vector<std::uint32_t> drawn;
    const int flips = em.drawFlips(10000, 100, rng, 1.0, drawn);
    EXPECT_GT(flips, 0);
    BitVector so(10000, false);
    for (const std::uint32_t pos : drawn) {
        ASSERT_LT(pos, so.size());
        so.set(pos, !so.get(pos));
    }
    // Colliding flip positions toggle a bit back, so the surviving
    // count is bounded by (and shares parity with) the flip count.
    EXPECT_LE(so.popcount(), static_cast<std::size_t>(flips));
    EXPECT_GT(so.popcount(), 0u);
    EXPECT_EQ(so.popcount() % 2, static_cast<std::size_t>(flips) % 2);
}

TEST(ErrorModel, MoreCyclingMeansMoreErrors)
{
    ErrorModel em;
    Rng rng(11);
    auto total = [&](std::uint32_t pe) {
        std::int64_t sum = 0;
        std::vector<std::uint32_t> drawn;
        for (int t = 0; t < 3000; ++t)
            sum += em.drawFlips(65536, pe, rng, 1.0, drawn);
        return sum;
    };
    EXPECT_LT(total(500), total(5000));
}

} // namespace
} // namespace parabit::flash
