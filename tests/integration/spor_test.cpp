/**
 * @file
 * SPOR soak sweep: 64+ seeded power-cut points over a mixed host-write /
 * trim / ParaBit-reallocation workload.  After every cut the device is
 * power-cycled and checked against an oracle of acknowledged state:
 *
 *  - zero lost acknowledged pages (bit-exact readback),
 *  - zero resurrected trimmed pages,
 *  - every in-flight reallocation fully applied or fully rolled back
 *    (the source operand stays readable either way),
 *  - no rebuilt mapping points into a torn wordline.
 *
 * Registered under the `recovery_soak` ctest label so CI's sanitizer
 * jobs can run the sweep explicitly (ctest -L recovery_soak).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

constexpr Lpn kHotLpns = 160;   ///< working set of the workload
constexpr Lpn kParabitBase = 400; ///< LPN range used by realloc pairs

SsdConfig
soakCfg(std::uint64_t seed)
{
    SsdConfig c = SsdConfig::tiny();
    c.geometry.blocksPerPlane = 16;
    c.geometry.pageBytes = 128;
    c.recovery.enabled = true;
    // Sweep the checkpoint cadence too: pure OOB scan, tight, loose.
    const std::uint32_t intervals[3] = {0, 8, 48};
    c.recovery.checkpointIntervalPrograms = intervals[seed % 3];
    c.scrambleHostData = (seed % 2) == 1;
    c.seed = 0xC0FFEEull + seed;
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

/** Oracle of acknowledged host-visible state: value = page contents,
 *  nullopt = acknowledged trim (the LPN must stay unmapped). */
using Oracle = std::map<Lpn, std::optional<BitVector>>;

void
runSeed(std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    SsdDevice dev(soakCfg(seed));
    Ftl &ftl = dev.ftl();
    const std::size_t bits = dev.geometry().pageBits();
    Rng rng(seed * 0x1234567ull + 99);

    Oracle oracle;
    std::uint64_t version = 0;
    Lpn next_pair = kParabitBase;

    // Arm the cut at a seeded PhysOp boundary; the before-op vs
    // mid-program mode is drawn from the injector seed (unpinned).
    FaultSpec cut;
    cut.cls = FaultClass::kPowerLoss;
    cut.onset = static_cast<std::uint32_t>(rng.below(260));
    dev.injectFault(cut);

    for (int step = 0; step < 6000 && !ftl.powerLost(); ++step) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 55) {
            // Host write (fresh or overwrite) of a hot LPN.
            const Lpn lpn = rng.below(kHotLpns);
            const BitVector d = pattern(bits, lpn, ++version);
            std::vector<PhysOp> ops;
            if (ftl.writePage(lpn, &d, ops))
                oracle[lpn] = d;
        } else if (roll < 65) {
            // Trim a (possibly unmapped) hot LPN.
            const Lpn lpn = rng.below(kHotLpns);
            std::vector<PhysOp> ops;
            if (ftl.trim(lpn, &ops))
                oracle[lpn] = std::nullopt;
        } else if (roll < 80) {
            // ParaBit operand pair placement (ReAllocation).
            const Lpn x = next_pair++;
            const Lpn y = next_pair++;
            const BitVector dx = pattern(bits, x, ++version);
            const BitVector dy = pattern(bits, y, ++version);
            std::vector<PhysOp> ops;
            if (ftl.writePair(x, y, flash::makePayload(dx),
                              flash::makePayload(dy), ops)
                    .has_value()) {
                oracle[x] = dx;
                oracle[y] = dy;
            }
        } else {
            // LSB-only placement + chained-result drop into the free
            // MSB: the copy-then-remap path whose atomicity the sweep
            // must prove (source readable whether or not the drop
            // was acknowledged).
            const Lpn src = next_pair++;
            const Lpn res = next_pair++;
            const BitVector ds = pattern(bits, src, ++version);
            const BitVector dr = pattern(bits, res, ++version);
            std::vector<PhysOp> ops;
            const auto lsb = ftl.writeLsbOnly(src, flash::makePayload(ds), ops);
            if (!lsb.has_value())
                continue;
            oracle[src] = ds;
            if (ftl.writeIntoFreeMsb(res, *lsb, flash::makePayload(dr), ops))
                oracle[res] = dr;
        }
    }
    ASSERT_TRUE(ftl.powerLost()) << "cut never fired (onset=" << cut.onset
                                 << ")";

    const RecoveryReport rep = dev.powerCycle();
    EXPECT_TRUE(rep.recovered);

    for (const auto &[lpn, want] : oracle) {
        const auto at = ftl.lookup(lpn);
        if (!want.has_value()) {
            EXPECT_FALSE(at.has_value())
                << "trimmed LPN " << lpn << " resurrected";
            continue;
        }
        ASSERT_TRUE(at.has_value()) << "acked LPN " << lpn << " lost";
        // The rebuilt mapping must never point into a torn wordline.
        const flash::ChipPageAddr ca{at->die, at->plane, at->block,
                                     at->wordline, at->msb};
        EXPECT_FALSE(dev.chipAt(at->channel, at->chip).wordlineTorn(ca))
            << "LPN " << lpn << " mapped to a torn wordline";
        std::vector<PhysOp> ops;
        EXPECT_EQ(*ftl.readPage(lpn, ops), *want)
            << "acked LPN " << lpn << " corrupted";
    }

    // The recovered device keeps working.
    const BitVector d = pattern(bits, 1, ++version);
    std::vector<PhysOp> ops;
    ASSERT_TRUE(ftl.writePage(1, &d, ops));
    EXPECT_EQ(*ftl.readPage(1, ops), d);
}

// 64 seeded cut points split into four shards so ctest can run them in
// parallel (and a red shard narrows the failing range).
TEST(SporSweep, CutPointsShard0)
{
    for (std::uint64_t s = 0; s < 16; ++s)
        runSeed(s);
}

TEST(SporSweep, CutPointsShard1)
{
    for (std::uint64_t s = 16; s < 32; ++s)
        runSeed(s);
}

TEST(SporSweep, CutPointsShard2)
{
    for (std::uint64_t s = 32; s < 48; ++s)
        runSeed(s);
}

TEST(SporSweep, CutPointsShard3)
{
    for (std::uint64_t s = 48; s < 64; ++s)
        runSeed(s);
}

// A second power loss after one recovery (double-crash): arbitration
// must hold across generations of the log region.
TEST(SporSweep, DoubleCrash)
{
    for (std::uint64_t seed = 100; seed < 108; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        SsdDevice dev(soakCfg(seed));
        Ftl &ftl = dev.ftl();
        const std::size_t bits = dev.geometry().pageBits();
        Rng rng(seed);
        Oracle oracle;
        std::uint64_t version = 0;
        for (int round = 0; round < 2; ++round) {
            FaultSpec cut;
            cut.cls = FaultClass::kPowerLoss;
            cut.onset = static_cast<std::uint32_t>(rng.below(120));
            dev.injectFault(cut);
            for (int step = 0; step < 4000 && !ftl.powerLost(); ++step) {
                const Lpn lpn = rng.below(kHotLpns);
                std::vector<PhysOp> ops;
                if (rng.chance(0.12)) {
                    if (ftl.trim(lpn, &ops))
                        oracle[lpn] = std::nullopt;
                    continue;
                }
                const BitVector d = pattern(bits, lpn, ++version);
                if (ftl.writePage(lpn, &d, ops))
                    oracle[lpn] = d;
            }
            ASSERT_TRUE(ftl.powerLost());
            EXPECT_TRUE(dev.powerCycle().recovered);
            for (const auto &[lpn, want] : oracle) {
                if (!want.has_value()) {
                    EXPECT_FALSE(ftl.lookup(lpn).has_value())
                        << "round " << round << " LPN " << lpn;
                    continue;
                }
                ASSERT_TRUE(ftl.lookup(lpn).has_value())
                    << "round " << round << " LPN " << lpn;
                std::vector<PhysOp> ops;
                EXPECT_EQ(*ftl.readPage(lpn, ops), *want)
                    << "round " << round << " LPN " << lpn;
            }
        }
    }
}

// A second power cut inside recovery, while the PLP dump of the first
// cut is being restored: the dump must stay durable, so the next
// recovery still brings back every acknowledged page.
TEST(SporSweep, CutDuringPlpRestore)
{
    int restores_cut = 0;
    for (std::uint32_t onset = 0; onset < 48; ++onset) {
        SCOPED_TRACE(::testing::Message() << "onset=" << onset);
        SsdDevice dev(soakCfg(0)); // no checkpoints, no scrambling
        Ftl &ftl = dev.ftl();
        const std::size_t bits = dev.geometry().pageBits();

        // First cut mid-program: the torn wordline takes its buffered
        // LSB with it, so restore has that page to re-place.
        FaultSpec cut;
        cut.cls = FaultClass::kPowerLoss;
        cut.onset = onset;
        cut.cutMidProgram = true;
        dev.injectFault(cut);
        Oracle oracle;
        std::uint64_t version = 0;
        for (Lpn lpn = 0; lpn < kHotLpns && !ftl.powerLost(); ++lpn) {
            const BitVector d = pattern(bits, lpn, ++version);
            std::vector<PhysOp> ops;
            if (ftl.writePage(lpn, &d, ops))
                oracle[lpn] = d;
        }
        ASSERT_TRUE(ftl.powerLost());
        std::vector<Lpn> dumped;
        for (const PlpEntry &e : ftl.durableLog().plpFlush)
            dumped.push_back(e.lpn);

        // Second cut at recovery's first PhysOp boundary, which is
        // restore's first re-placement when there is one.
        FaultSpec again;
        again.cls = FaultClass::kPowerLoss;
        again.onset = 0;
        again.cutMidProgram = (onset % 2) == 1;
        dev.injectFault(again);
        dev.powerCycle();
        ASSERT_TRUE(ftl.powerLost()) << "the second cut never fired";

        const RecoveryReport rep = dev.powerCycle();
        EXPECT_TRUE(rep.recovered);
        restores_cut += rep.plpRestored > 0 ? 1 : 0;
        // Each LPN was written once, so a dumped entry's payload is
        // the oracle's.
        for (const Lpn lpn : dumped) {
            ASSERT_TRUE(oracle.count(lpn) > 0) << "LPN " << lpn;
            ASSERT_TRUE(ftl.lookup(lpn).has_value())
                << "dumped LPN " << lpn << " lost";
            std::vector<PhysOp> ops;
            EXPECT_EQ(*ftl.readPage(lpn, ops), *oracle[lpn])
                << "dumped LPN " << lpn << " corrupted";
        }
        for (const auto &[lpn, want] : oracle) {
            std::vector<PhysOp> ops;
            EXPECT_EQ(*ftl.readPage(lpn, ops), *want)
                << "acked LPN " << lpn << " corrupted";
        }
    }
    // The sweep must include cuts that land inside a restore.
    EXPECT_GT(restores_cut, 0);
}

} // namespace
} // namespace parabit::ssd
