/**
 * @file
 * Media-management soak sweep: 64 seeded runs of a mixed host workload
 * with patrol scrubbing, disturb-count refresh and die-level RAIN
 * parity all enabled, plus one sudden power cut and one whole-die
 * failure per run.  The acceptance bar is zero
 * uncorrectable-after-rebuild data loss:
 *
 *  - after the power cycle every acknowledged page reads back bit-exact
 *    and the recomputed parity still rebuilds every stripe,
 *  - after the die failure every mapped LPN on the dead die is repaired
 *    (background patrol or on-demand) and reads back bit-exact,
 *  - the scrubber's uncorrectable counter stays zero throughout.
 *
 * Registered under the `media_soak` ctest label so CI's sanitizer jobs
 * can run the sweep explicitly (ctest -L media_soak).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

constexpr Lpn kHotLpns = 128; ///< working set of the workload

SsdConfig
soakCfg(std::uint64_t seed)
{
    SsdConfig c = SsdConfig::tiny();
    c.geometry.blocksPerPlane = 16;
    c.recovery.enabled = true;
    const std::uint32_t intervals[3] = {0, 8, 48};
    c.recovery.checkpointIntervalPrograms = intervals[seed % 3];
    c.scrambleHostData = (seed % 2) == 1;
    // Ideal error model keeps payloads bit-exact (the oracle compares
    // raw pages); the pure-count disturb trigger still exercises
    // refresh-relocation under it.
    c.media.enabled = true;
    c.media.scrubInterval = ticks::fromUs(5);
    c.media.scrubWordlinesPerPass = 64;
    c.media.refreshDisturbThreshold = 256;
    c.rain.enabled = true;
    c.seed = 0xBEEFull + seed;
    return c;
}

BitVector
pattern(std::size_t bits, Lpn lpn, std::uint64_t version)
{
    BitVector v(bits, false);
    std::uint64_t s = (lpn + 1) * 0x9E3779B97F4A7C15ull + version;
    for (std::size_t i = 0; i < bits; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        v.set(i, ((s >> 61) & 1) != 0);
    }
    return v;
}

/** Read @p lpn through the repair path: never panics on a dead plane,
 *  fails the test on genuine data loss. */
void
expectReadsBack(SsdDevice &dev, Lpn lpn, const BitVector &want, Tick now)
{
    Ftl &ftl = dev.ftl();
    ASSERT_TRUE(ftl.lookup(lpn).has_value()) << "lpn " << lpn << " lost";
    if (!ftl.pageAccessible(lpn)) {
        ASSERT_TRUE(dev.repairPage(lpn, now))
            << "uncorrectable after rebuild: lpn " << lpn;
    }
    std::vector<PhysOp> ops;
    EXPECT_EQ(*ftl.readPage(lpn, ops), want) << "lpn " << lpn;
}

void
runSeed(std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    SsdDevice dev(soakCfg(seed));
    Ftl &ftl = dev.ftl();
    const std::size_t bits = dev.geometry().pageBits();
    Rng rng(seed * 0x5DEECE66Dull + 7);

    std::map<Lpn, BitVector> oracle;
    std::uint64_t version = 0;
    Tick now = 0;

    // Arm a power cut at a seeded PhysOp boundary somewhere inside the
    // mixed phase (the fill alone books a few hundred ops; reads and
    // patrol senses advance the boundary count too).
    FaultSpec cut;
    cut.cls = FaultClass::kPowerLoss;
    cut.onset = static_cast<std::uint32_t>(300 + rng.below(400));
    dev.injectFault(cut);

    // Fill, then mixed overwrites and reads with patrol pumping in
    // between; the cut fires somewhere in here.
    for (Lpn l = 0; l < kHotLpns && !ftl.powerLost(); ++l) {
        const BitVector d = pattern(bits, l, ++version);
        std::vector<PhysOp> ops;
        if (ftl.writePage(l, &d, ops))
            oracle[l] = d;
    }
    for (int step = 0; step < 4000 && !ftl.powerLost(); ++step) {
        const std::uint64_t roll = rng.below(100);
        const Lpn lpn = rng.below(kHotLpns);
        if (roll < 40) {
            const BitVector d = pattern(bits, lpn, ++version);
            std::vector<PhysOp> ops;
            if (ftl.writePage(lpn, &d, ops))
                oracle[lpn] = d;
        } else if (oracle.count(lpn) != 0 && ftl.pageAccessible(lpn)) {
            std::vector<PhysOp> ops;
            const BitVector got = *ftl.readPage(lpn, ops);
            // A cut can land on this very read's op boundary; the
            // device then returns power-down zeros, not data.
            if (!ftl.powerLost()) {
                EXPECT_EQ(got, oracle[lpn])
                    << "lpn " << lpn << " step " << step;
            }
        }
        now += ticks::fromUs(1);
        dev.pumpMedia(now);
    }
    ASSERT_TRUE(ftl.powerLost())
        << "cut never fired (onset=" << cut.onset << ")";

    const RecoveryReport rep = dev.powerCycle(now);
    EXPECT_TRUE(rep.recovered);

    // Acknowledged state survived the cut and parity was recomputed.
    for (const auto &[lpn, want] : oracle)
        expectReadsBack(dev, lpn, want, now);

    // Whole-die failure: one die of one channel (never both members of
    // a stripe), chosen by seed.
    FaultSpec die;
    die.cls = FaultClass::kDieFail;
    die.plane = static_cast<std::uint32_t>((seed % 4) * 2);
    dev.injectFault(die);

    // Let the patrol find and repair some of it in the background...
    for (int round = 0; round < 4; ++round)
        now = dev.pumpMedia(dev.media()->nextPassAt() + 1);
    EXPECT_EQ(dev.media()->uncorrectable(), 0u);

    // ...and on-demand repair must cover the rest: zero uncorrectable.
    for (const auto &[lpn, want] : oracle)
        expectReadsBack(dev, lpn, want, now);

    // The repaired device keeps working.
    const BitVector d = pattern(bits, 1, ++version);
    std::vector<PhysOp> ops;
    ASSERT_TRUE(ftl.writePage(1, &d, ops));
    EXPECT_EQ(*ftl.readPage(1, ops), d);
}

// 64 seeds split into four shards so ctest can run them in parallel
// (and a red shard narrows the failing range).
TEST(MediaSoak, Shard0)
{
    for (std::uint64_t s = 0; s < 16; ++s)
        runSeed(s);
}

TEST(MediaSoak, Shard1)
{
    for (std::uint64_t s = 16; s < 32; ++s)
        runSeed(s);
}

TEST(MediaSoak, Shard2)
{
    for (std::uint64_t s = 32; s < 48; ++s)
        runSeed(s);
}

TEST(MediaSoak, Shard3)
{
    for (std::uint64_t s = 48; s < 64; ++s)
        runSeed(s);
}

} // namespace
} // namespace parabit::ssd
