/**
 * @file
 * Sudden-power-off recovery (SPOR) data model shared between the FTL,
 * the SSD device and the recovery tests/benches.
 *
 * Durability in this simulator is modeled at PhysOp granularity: a
 * checkpoint page or journal record only enters the DurableLog once its
 * flash program completed *before* the power cut (the FTL gates every
 * log-region program through the fault injector's power-cut check), so
 * what recovery can read after a crash is exactly what a real device
 * would find in its reserved blocks.  See DESIGN.md "Crash consistency"
 * for the on-flash layout the model stands in for.
 */

#ifndef PARABIT_SSD_RECOVERY_HPP_
#define PARABIT_SSD_RECOVERY_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "flash/block.hpp"
#include "ssd/lpn.hpp"
#include "ssd/lpn_table.hpp"

namespace parabit::ssd {

/**
 * Why a page was programmed; stored in flash::PageOob::tag.  Recovery
 * treats all data tags identically (the mapping is arbitrated purely by
 * sequence number); the tag exists for debugging and for excluding
 * checkpoint/journal pages from the data scan.
 */
enum class OobTag : std::uint8_t
{
    kNone = 0,
    kHostData,
    kGcRelocated,
    kParabitPair,     ///< co-located operand pair (writePair)
    kParabitLsbOnly,  ///< LSB-only pre-allocation (writeLsbOnly)
    kParabitChainMsb, ///< chained result dropped into a free MSB
    kPairBackup,      ///< copy protecting an LSB under an in-place MSB drop
    kLog,             ///< checkpoint/journal page in the reserved region
};

/** One write-ahead journal record. */
struct JournalRecord
{
    enum class Kind : std::uint8_t
    {
        kTrim = 0, ///< lpn unmapped (written ahead of the trim ack)
        kRemap,    ///< lpn maps to linear page index `value`
        kErase,    ///< linear block id `value` erased (GC / wear level)
        kRetire,   ///< linear block id `value` retired (bad block)
    };

    Kind kind = Kind::kTrim;
    std::uint64_t seq = 0; ///< assigned from the FTL sequence stream
    Lpn lpn = 0;           ///< kTrim / kRemap
    std::uint64_t value = 0; ///< kRemap: linear page; kErase/kRetire: block
};

/**
 * Snapshot of mapping + allocator state taken by a checkpoint.  The map
 * is a copy of the FTL's page table: it shares every chunk with the
 * live table until the table next writes that chunk (see
 * lpn_table.hpp).  The image is still charged by its serialised size,
 * one {lpn, linear page, scrambled} record per mapped LPN
 * (Ftl::checkpoint).
 */
struct CheckpointImage
{
    /** Sequence horizon: every program with seq < this is covered by
     *  the image; journal/OOB entries at or above it supersede it. */
    std::uint64_t seq = 0;
    /** The page table at checkpoint time. */
    LpnTable map;
    /** Linear block ids that may receive programs after this
     *  checkpoint (free pool + active cursor blocks): the bounded
     *  recovery scan set. */
    std::vector<std::uint64_t> scanBlocks;
    /** Linear block ids retired (bad) at checkpoint time. */
    std::vector<std::uint64_t> retired;
    /** Flash pages the serialized image occupies in the log region. */
    std::uint32_t pages = 0;
};

/**
 * One entry of the power-loss-protected unpaired-LSB buffer.  The MLC
 * shared-wordline hazard means a torn MSB program destroys the paired —
 * already acknowledged — LSB page.  The controller therefore keeps each
 * interleaved LSB write buffered in RAM until its partner MSB program
 * completes; on power failure the hold-up capacitors dump the buffer to
 * the reserved region (standard enterprise-SSD PLP), and recovery
 * re-programs any entry whose flash copy did not survive the tear.
 */
struct PlpEntry
{
    Lpn lpn = kNoLpn;
    /** OOB sequence number of the original program (stale-entry
     *  arbitration when an LPN was rewritten while still buffered). */
    std::uint64_t seq = 0;
    /** The programmed page's payload, shared (null in timing-only
     *  mode). */
    flash::Payload data;
    bool scrambled = false;
};

/** What survives in the reserved blocks; see file comment. */
struct DurableLog
{
    std::optional<CheckpointImage> checkpoint;
    /** Records flushed after `checkpoint` (the journal tail). */
    std::vector<JournalRecord> records;
    /** Capacitor-flushed unpaired-LSB buffer (see PlpEntry). */
    std::vector<PlpEntry> plpFlush;
};

/** Outcome and cost accounting of one recovery pass. */
struct RecoveryReport
{
    bool recovered = false;
    bool usedCheckpoint = false;
    std::uint64_t blocksScanned = 0;
    std::uint64_t pagesScanned = 0;      ///< OOB reads during the scan
    std::uint64_t oobCandidates = 0;     ///< valid pages entering arbitration
    std::uint64_t journalRecords = 0;    ///< journal records replayed
    std::uint64_t checkpointPagesRead = 0;
    std::uint64_t tornWordlines = 0;     ///< wordlines excluded as torn
    std::uint64_t mappingsRebuilt = 0;   ///< LPNs mapped after arbitration
    std::uint64_t staleInvalidated = 0;  ///< valid pages that lost arbitration
    std::uint64_t plpRestored = 0;       ///< pages re-programmed from PLP
    std::uint64_t nextSeq = 0;           ///< sequence stream after recovery
    Tick scanTime = 0;                   ///< simulated recovery time
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_RECOVERY_HPP_
