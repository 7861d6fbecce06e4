/**
 * @file
 * Unit tests for the crash-consistency layer (SPOR): OOB metadata,
 * power-cut boundaries, torn-wordline handling with PLP restore,
 * write-ahead trim journaling, checkpoint-bounded recovery scans and
 * the NVMe Flush / shutdown-notification checkpoint path.
 *
 * The integration-level seed sweep lives in tests/integration/
 * spor_test.cpp; these tests pin down the individual mechanisms.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "parabit/device.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

/** Recovery-enabled test device: tiny geometry widened to 16 blocks per
 *  plane (2 reserved for the log region) and 128 B pages so checkpoint
 *  images of a few hundred mappings fit in one ping-pong half. */
SsdConfig
recCfg(std::uint32_t ckpt_interval = 0)
{
    SsdConfig c = SsdConfig::tiny();
    c.geometry.blocksPerPlane = 16;
    c.geometry.pageBytes = 128;
    c.recovery.enabled = true;
    c.recovery.checkpointIntervalPrograms = ckpt_interval;
    return c;
}

/** Deterministic per-LPN page pattern (distinct across versions via
 *  @p version so overwrites are distinguishable). */
BitVector
pattern(std::size_t bits, Lpn lpn, std::uint64_t version = 0)
{
    BitVector v(bits, false);
    std::uint64_t s = (lpn + 1) * 0x9E3779B97F4A7C15ull + version * 0x85EBull;
    for (std::size_t i = 0; i < bits; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        v.set(i, ((s >> 61) & 1) != 0);
    }
    return v;
}

std::optional<flash::PageOob>
oobAt(SsdDevice &dev, const flash::PhysPageAddr &a)
{
    return dev.chipAt(a.channel, a.chip).pageOob(a);
}

FaultSpec
powerCut(std::uint32_t onset, std::optional<bool> mid = std::nullopt)
{
    FaultSpec s;
    s.cls = FaultClass::kPowerLoss;
    s.onset = onset;
    s.cutMidProgram = mid;
    return s;
}

/** Write fresh LPNs starting at @p base until the armed cut fires;
 *  acked writes are recorded in @p acked.  Returns pages acked. */
std::size_t
writeUntilCut(SsdDevice &dev, Lpn base, std::map<Lpn, BitVector> &acked)
{
    const std::size_t bits = dev.geometry().pageBits();
    std::size_t n = 0;
    for (Lpn l = base; !dev.ftl().powerLost(); ++l) {
        std::vector<PhysOp> ops;
        const BitVector d = pattern(bits, l);
        if (dev.ftl().writePage(l, &d, ops)) {
            acked[l] = d;
            ++n;
        }
        if (l - base > 5000) {
            ADD_FAILURE() << "power cut never fired";
            break;
        }
    }
    return n;
}

TEST(Recovery, ReservedRegionMustBeEvenAndLeaveDataBlocks)
{
    SsdConfig c = recCfg();
    c.recovery.reservedBlocksPerPlane = 3;
    EXPECT_DEATH(SsdDevice dev(c), "reservedBlocksPerPlane");
    c.recovery.reservedBlocksPerPlane = 16;
    EXPECT_DEATH(SsdDevice dev(c), "reservedBlocksPerPlane");
}

TEST(Recovery, ReservedRegionShrinksLogicalCapacity)
{
    SsdConfig on = recCfg();
    SsdConfig off = recCfg();
    off.recovery.enabled = false;
    SsdDevice a(on);
    SsdDevice b(off);
    EXPECT_LT(a.ftl().logicalPages(), b.ftl().logicalPages());
}

TEST(Recovery, HostWritesCarryOobMetadata)
{
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    std::uint64_t prev_seq = 0;
    for (Lpn lpn = 10; lpn < 14; ++lpn) {
        std::vector<PhysOp> ops;
        const BitVector d = pattern(bits, lpn);
        ASSERT_TRUE(dev.ftl().writePage(lpn, &d, ops));
        const auto a = dev.ftl().lookup(lpn);
        ASSERT_TRUE(a.has_value());
        const std::optional<flash::PageOob> oob = oobAt(dev, *a);
        ASSERT_TRUE(oob.has_value());
        EXPECT_EQ(oob->lpn, lpn);
        EXPECT_EQ(oob->tag, static_cast<std::uint8_t>(OobTag::kHostData));
        EXPECT_FALSE(oob->scrambled);
        EXPECT_GT(oob->seq, prev_seq); // monotonic sequence stream
        prev_seq = oob->seq;
    }
}

TEST(Recovery, TrimIsWriteAheadJournaled)
{
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    const BitVector d = pattern(bits, 3);
    std::vector<PhysOp> ops;
    ASSERT_TRUE(dev.ftl().writePage(3, &d, ops));
    ASSERT_TRUE(dev.ftl().trim(3, &ops));
    EXPECT_FALSE(dev.ftl().lookup(3).has_value());
    EXPECT_EQ(dev.ftl().journalRecordsWritten(), 1u);
    ASSERT_EQ(dev.ftl().durableLog().records.size(), 1u);
    const JournalRecord &r = dev.ftl().durableLog().records.front();
    EXPECT_EQ(r.kind, JournalRecord::Kind::kTrim);
    EXPECT_EQ(r.lpn, 3u);
    EXPECT_GT(r.seq, 0u);
}

TEST(Recovery, MappingSurvivesPowerCutViaFullOobScan)
{
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    std::map<Lpn, BitVector> acked;
    for (Lpn l = 0; l < 24; ++l) {
        std::vector<PhysOp> ops;
        const BitVector d = pattern(bits, l);
        ASSERT_TRUE(dev.ftl().writePage(l, &d, ops));
        acked[l] = d;
    }
    // Overwrite a few so stale copies exist on flash.
    for (Lpn l = 0; l < 6; ++l) {
        std::vector<PhysOp> ops;
        const BitVector d = pattern(bits, l, /*version=*/1);
        ASSERT_TRUE(dev.ftl().writePage(l, &d, ops));
        acked[l] = d;
    }
    dev.injectFault(powerCut(/*onset=*/7, /*mid=*/false));
    writeUntilCut(dev, 100, acked);
    EXPECT_TRUE(dev.ftl().powerLost());

    const RecoveryReport rep = dev.powerCycle();
    EXPECT_TRUE(rep.recovered);
    EXPECT_FALSE(rep.usedCheckpoint); // no checkpoint was ever taken
    EXPECT_GE(rep.mappingsRebuilt, acked.size());
    EXPECT_GT(rep.pagesScanned, 0u);
    EXPECT_GT(rep.oobCandidates, 0u);
    EXPECT_GT(rep.scanTime, 0);
    for (const auto &[lpn, d] : acked) {
        ASSERT_TRUE(dev.ftl().lookup(lpn).has_value()) << "LPN " << lpn;
        std::vector<PhysOp> ops;
        EXPECT_EQ(*dev.ftl().readPage(lpn, ops), d) << "LPN " << lpn;
    }

    // The sequence stream continues past everything recovered.
    std::vector<PhysOp> ops;
    const BitVector d = pattern(bits, 500);
    ASSERT_TRUE(dev.ftl().writePage(500, &d, ops));
    const std::optional<flash::PageOob> oob =
        oobAt(dev, *dev.ftl().lookup(500));
    ASSERT_TRUE(oob.has_value());
    EXPECT_GE(oob->seq, rep.nextSeq);
}

TEST(Recovery, ScrambledPagesRecoverBitExact)
{
    SsdConfig c = recCfg();
    c.scrambleHostData = true;
    SsdDevice dev(c);
    const std::size_t bits = dev.geometry().pageBits();
    std::map<Lpn, BitVector> acked;
    for (Lpn l = 0; l < 12; ++l) {
        std::vector<PhysOp> ops;
        const BitVector d = pattern(bits, l);
        ASSERT_TRUE(dev.ftl().writePage(l, &d, ops));
        acked[l] = d;
    }
    dev.injectFault(powerCut(/*onset=*/3, /*mid=*/false));
    writeUntilCut(dev, 100, acked);
    const RecoveryReport rep = dev.powerCycle();
    EXPECT_TRUE(rep.recovered);
    for (const auto &[lpn, d] : acked) {
        ASSERT_TRUE(dev.ftl().lookup(lpn).has_value()) << "LPN " << lpn;
        std::vector<PhysOp> ops;
        EXPECT_EQ(*dev.ftl().readPage(lpn, ops), d) << "LPN " << lpn;
    }
}

TEST(Recovery, TornMsbWordlineDetectedAndPairedLsbRestoredFromPlp)
{
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    const std::uint32_t planes = dev.geometry().planesTotal();
    // One LSB write per plane: every plane cursor now sits on the MSB
    // phase of a wordline holding acknowledged data.
    std::map<Lpn, BitVector> acked;
    std::map<Lpn, flash::PhysPageAddr> at;
    for (Lpn l = 0; l < planes; ++l) {
        std::vector<PhysOp> ops;
        const BitVector d = pattern(bits, l);
        ASSERT_TRUE(dev.ftl().writePage(l, &d, ops));
        acked[l] = d;
        at[l] = *dev.ftl().lookup(l);
        EXPECT_FALSE(at[l].msb);
    }
    // The very next program is an interleaved MSB — cut mid-tPROG.
    dev.injectFault(powerCut(/*onset=*/0, /*mid=*/true));
    std::vector<PhysOp> ops;
    const BitVector d = pattern(bits, planes);
    EXPECT_FALSE(dev.ftl().writePage(planes, &d, ops));
    EXPECT_TRUE(dev.ftl().powerLost());

    const RecoveryReport rep = dev.powerCycle();
    EXPECT_EQ(rep.tornWordlines, 1u);
    EXPECT_EQ(rep.plpRestored, 1u);
    // Every acknowledged page survived; the one whose wordline tore was
    // re-placed from the capacitor-flushed buffer.
    std::size_t moved = 0;
    for (const auto &[lpn, data] : acked) {
        ASSERT_TRUE(dev.ftl().lookup(lpn).has_value()) << "LPN " << lpn;
        std::vector<PhysOp> r;
        EXPECT_EQ(*dev.ftl().readPage(lpn, r), data) << "LPN " << lpn;
        if (!(*dev.ftl().lookup(lpn) == at[lpn]))
            ++moved;
    }
    EXPECT_EQ(moved, 1u);
    // The torn write itself was never acknowledged and must stay unmapped.
    EXPECT_FALSE(dev.ftl().lookup(planes).has_value());
}

TEST(Recovery, TrimmedLpnStaysUnmappedThroughGcAndPowerCut)
{
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    std::map<Lpn, BitVector> acked;
    // Hammer a small working set until GC has run: stale copies of the
    // victims are spread over many blocks and GC's erase journal keeps
    // the recovery scan set honest.
    std::uint64_t version = 0;
    while (dev.ftl().gcRuns() == 0) {
        ++version;
        for (Lpn l = 0; l < 10; ++l) {
            std::vector<PhysOp> ops;
            const BitVector d = pattern(bits, l, version);
            ASSERT_TRUE(dev.ftl().writePage(l, &d, ops));
            acked[l] = d;
        }
        ASSERT_LT(version, 1000u) << "GC never triggered";
    }
    std::vector<PhysOp> ops;
    ASSERT_TRUE(dev.ftl().trim(5, &ops)); // acknowledged trim
    acked.erase(5);

    dev.injectFault(powerCut(/*onset=*/6, /*mid=*/false));
    writeUntilCut(dev, 200, acked);
    const RecoveryReport rep = dev.powerCycle();
    EXPECT_TRUE(rep.recovered);
    EXPECT_FALSE(dev.ftl().lookup(5).has_value())
        << "trimmed LPN resurrected by recovery";
    for (const auto &[lpn, d] : acked) {
        ASSERT_TRUE(dev.ftl().lookup(lpn).has_value()) << "LPN " << lpn;
        std::vector<PhysOp> r;
        EXPECT_EQ(*dev.ftl().readPage(lpn, r), d) << "LPN " << lpn;
    }
}

TEST(Recovery, CheckpointBoundsTheRecoveryScan)
{
    auto run = [](std::uint32_t interval) {
        SsdDevice dev(recCfg(interval));
        const std::size_t bits = dev.geometry().pageBits();
        std::map<Lpn, BitVector> acked;
        // Enough distinct pages to seal a couple of blocks per plane —
        // sealed blocks are exactly what the checkpoint's bounded scan
        // set excludes.
        for (Lpn l = 0; l < 320; ++l) {
            std::vector<PhysOp> ops;
            const BitVector d = pattern(bits, l);
            EXPECT_TRUE(dev.ftl().writePage(l, &d, ops));
            acked[l] = d;
        }
        dev.injectFault(powerCut(/*onset=*/2, /*mid=*/false));
        writeUntilCut(dev, 1000, acked);
        const RecoveryReport rep = dev.powerCycle();
        EXPECT_TRUE(rep.recovered);
        for (const auto &[lpn, d] : acked) {
            EXPECT_TRUE(dev.ftl().lookup(lpn).has_value()) << "LPN " << lpn;
            std::vector<PhysOp> r;
            EXPECT_EQ(*dev.ftl().readPage(lpn, r), d) << "LPN " << lpn;
        }
        return rep;
    };
    const RecoveryReport full = run(/*interval=*/0);
    const RecoveryReport bounded = run(/*interval=*/16);
    EXPECT_FALSE(full.usedCheckpoint);
    EXPECT_TRUE(bounded.usedCheckpoint);
    EXPECT_GT(bounded.checkpointPagesRead, 0u);
    // The checkpoint excludes blocks sealed before it from the scan.
    EXPECT_LT(bounded.pagesScanned, full.pagesScanned);
    EXPECT_LT(bounded.blocksScanned, full.blocksScanned);
}

TEST(Recovery, ChainedMsbDropBackupProtectsTheSourceOperand)
{
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    const BitVector da = pattern(bits, 40);
    const BitVector db = pattern(bits, 41);
    std::vector<PhysOp> ops;
    const auto lsb = dev.ftl().writeLsbOnly(40, flash::makePayload(da), ops);
    ASSERT_TRUE(lsb.has_value());
    // Boundaries: read gate, backup program, then the MSB drop — which
    // tears the wordline holding the acknowledged source operand.
    dev.injectFault(powerCut(/*onset=*/2, /*mid=*/true));
    EXPECT_FALSE(
        dev.ftl().writeIntoFreeMsb(41, *lsb, flash::makePayload(db), ops));
    EXPECT_TRUE(dev.ftl().powerLost());

    const RecoveryReport rep = dev.powerCycle();
    EXPECT_EQ(rep.tornWordlines, 1u);
    // The source operand survives via the backup copy...
    ASSERT_TRUE(dev.ftl().lookup(40).has_value());
    EXPECT_FALSE(*dev.ftl().lookup(40) == *lsb);
    std::vector<PhysOp> r;
    EXPECT_EQ(*dev.ftl().readPage(40, r), da);
    // ...and the unacknowledged drop is fully rolled back.
    EXPECT_FALSE(dev.ftl().lookup(41).has_value());
}

TEST(Recovery, TornWordlineDropsOnlyItsOwnReferenceToASharedPayload)
{
    // Two LSB-only pages share one payload; a cut mid-program of the
    // first page's MSB tears that wordline and no other holder's bits.
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    const BitVector da = pattern(bits, 40);
    std::vector<PhysOp> ops;
    std::optional<flash::PhysPageAddr> torn, other;
    {
        const flash::Payload shared = flash::makePayload(da);
        torn = dev.ftl().writeLsbOnly(40, shared, ops);
        other = dev.ftl().writeLsbOnly(50, shared, ops);
    }
    ASSERT_TRUE(torn && other);
    const auto stored = [&](const flash::PhysPageAddr &a) {
        return dev.chipAt(a.channel, a.chip)
            .plane(a.die, a.plane)
            .block(a.block)
            .pageData(a.wordline, a.msb)
            .get();
    };
    const BitVector *shared_bits = stored(*other);
    ASSERT_EQ(stored(*torn), shared_bits);

    // Boundaries: read gate, backup program, then the MSB drop.
    dev.injectFault(powerCut(/*onset=*/2, /*mid=*/true));
    EXPECT_FALSE(dev.ftl().writeIntoFreeMsb(
        41, *torn, flash::makePayload(pattern(bits, 41)), ops));
    ASSERT_TRUE(dev.chipAt(torn->channel, torn->chip).wordlineTorn(*torn));
    EXPECT_EQ(stored(*torn), nullptr);
    ASSERT_EQ(stored(*other), shared_bits);
    EXPECT_EQ(*stored(*other), da);

    dev.powerCycle();
    std::vector<PhysOp> r;
    EXPECT_EQ(*dev.ftl().readPage(50, r), da);
    EXPECT_EQ(*dev.ftl().readPage(40, r), da); // via the pair backup
}

TEST(Recovery, CompletedMsbDropSurvivesALaterCut)
{
    SsdDevice dev(recCfg());
    const std::size_t bits = dev.geometry().pageBits();
    const BitVector da = pattern(bits, 40);
    const BitVector db = pattern(bits, 41);
    std::vector<PhysOp> ops;
    const auto lsb = dev.ftl().writeLsbOnly(40, flash::makePayload(da), ops);
    ASSERT_TRUE(lsb.has_value());
    ASSERT_TRUE(
        dev.ftl().writeIntoFreeMsb(41, *lsb, flash::makePayload(db), ops));
    dev.injectFault(powerCut(/*onset=*/0, /*mid=*/false));
    std::map<Lpn, BitVector> sink;
    writeUntilCut(dev, 100, sink);

    const RecoveryReport rep = dev.powerCycle();
    EXPECT_TRUE(rep.recovered);
    ASSERT_TRUE(dev.ftl().lookup(40).has_value());
    ASSERT_TRUE(dev.ftl().lookup(41).has_value());
    EXPECT_TRUE(dev.ftl().lookup(41)->msb);
    std::vector<PhysOp> r;
    EXPECT_EQ(*dev.ftl().readPage(40, r), da);
    EXPECT_EQ(*dev.ftl().readPage(41, r), db);
}

TEST(Recovery, DisabledRecoveryLosesMappingButDeviceStaysUsable)
{
    SsdConfig c = recCfg();
    c.recovery.enabled = false;
    SsdDevice dev(c);
    const std::size_t bits = dev.geometry().pageBits();
    const BitVector d = pattern(bits, 7);
    std::vector<PhysOp> ops;
    ASSERT_TRUE(dev.ftl().writePage(7, &d, ops));
    dev.injectFault(powerCut(/*onset=*/0, /*mid=*/false));
    std::map<Lpn, BitVector> sink;
    writeUntilCut(dev, 100, sink);

    const RecoveryReport rep = dev.powerCycle();
    EXPECT_FALSE(rep.recovered);
    EXPECT_FALSE(dev.ftl().lookup(7).has_value()); // mapping gone
    const BitVector d2 = pattern(bits, 8);
    ASSERT_TRUE(dev.ftl().writePage(8, &d2, ops)); // but writes work
    std::vector<PhysOp> r;
    EXPECT_EQ(*dev.ftl().readPage(8, r), d2);
}

TEST(Recovery, CleanPowerCycleRecoversWithoutACut)
{
    SsdDevice dev(recCfg(/*ckpt_interval=*/8));
    const std::size_t bits = dev.geometry().pageBits();
    std::map<Lpn, BitVector> acked;
    for (Lpn l = 0; l < 20; ++l) {
        std::vector<PhysOp> ops;
        const BitVector d = pattern(bits, l);
        ASSERT_TRUE(dev.ftl().writePage(l, &d, ops));
        acked[l] = d;
    }
    const RecoveryReport rep = dev.powerCycle(); // no fault armed
    EXPECT_TRUE(rep.recovered);
    for (const auto &[lpn, d] : acked) {
        ASSERT_TRUE(dev.ftl().lookup(lpn).has_value()) << "LPN " << lpn;
        std::vector<PhysOp> r;
        EXPECT_EQ(*dev.ftl().readPage(lpn, r), d) << "LPN " << lpn;
    }
}

TEST(Recovery, FlushAndShutdownForceCheckpoints)
{
    core::ParaBitDevice dev(recCfg());
    const std::size_t bits = dev.ssd().geometry().pageBits();
    dev.writeData(0, {pattern(bits, 0), pattern(bits, 1)});
    EXPECT_EQ(dev.ssd().ftl().checkpointsTaken(), 0u);

    EXPECT_TRUE(dev.flush()); // NVMe Flush semantics
    EXPECT_EQ(dev.ssd().ftl().checkpointsTaken(), 1u);
    ASSERT_TRUE(dev.ssd().ftl().durableLog().checkpoint.has_value());
    EXPECT_EQ(dev.ssd().ftl().durableLog().checkpoint->map.size(), 2u);

    // Flush over the NVMe queue pair path.
    core::HostInterface host(dev, 1, 8);
    ASSERT_TRUE(host.submitFlush(0).has_value());
    host.pump();
    const auto cqe = host.reap(0);
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->status, 0u);
    EXPECT_EQ(dev.ssd().ftl().checkpointsTaken(), 2u);

    // CC.SHN shutdown notification: one more checkpoint.
    EXPECT_TRUE(host.shutdownNotify());
    EXPECT_EQ(dev.ssd().ftl().checkpointsTaken(), 3u);
}

TEST(Recovery, FlushIsANoOpWhenRecoveryDisabled)
{
    core::ParaBitDevice dev(SsdConfig::tiny());
    EXPECT_TRUE(dev.flush());
    EXPECT_TRUE(dev.shutdownNotify());
    EXPECT_EQ(dev.ssd().ftl().checkpointsTaken(), 0u);
}

} // namespace
} // namespace parabit::ssd
