/**
 * @file
 * Page-mapping Flash Translation Layer with greedy garbage collection.
 *
 * The FTL is purely functional: it mutates the chip array and appends a
 * log of the physical operations it performed (including GC traffic) so
 * the device layer can book them on the timing model.  Besides the
 * standard read/write/trim path it exposes the placement primitives the
 * ParaBit controller builds on:
 *
 *  - writePair():  place two logical pages on one wordline (operand
 *                  co-location / ReAllocation);
 *  - writeLsbOnly(): LSB-only placement leaving MSBs free (Section 5.5
 *                  pre-allocation);
 *  - writeIntoFreeMsb(): drop a fresh logical page into the free MSB of
 *                  an existing wordline (chained-result placement).
 *
 * With SsdConfig::recovery enabled the FTL is crash-consistent: every
 * program carries OOB metadata (LPN, sequence number, tag), mapping
 * deletions are write-ahead journaled to a reserved SLC log region,
 * periodic checkpoints bound the recovery scan, and powerCycle()
 * rebuilds the page map and allocator after a kPowerLoss fault cut
 * execution at an arbitrary PhysOp boundary.  See DESIGN.md "Crash
 * consistency".
 *
 * The page map is one LPN-ordered table (ssd/lpn_table.hpp).  There is
 * no reverse map: the LPN a physical page holds is read off the page's
 * OOB metadata and confirmed against the table (lpnAt()).
 */

#ifndef PARABIT_SSD_FTL_HPP_
#define PARABIT_SSD_FTL_HPP_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "common/invariant.hpp"
#include "flash/chip.hpp"
#include "obs/metrics.hpp"
#include "ssd/allocator.hpp"
#include "ssd/config.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/lpn_table.hpp"
#include "ssd/recovery.hpp"
#include "ssd/scrambler.hpp"

namespace parabit::ssd {

class RainController;
class DeviceHealth;

/** One physical flash operation: the one unit the timing layer books. */
struct PhysOp
{
    enum class Kind : std::uint8_t
    {
        kPageRead,    ///< array sense (1 SRO LSB / 2 SRO MSB) + page out
        kPageProgram, ///< page in + program
        kBlockErase,  ///< erase (addr.block significant)
        kScrubRead,   ///< patrol-scrub scan sense (low-priority, no xfer)
        /** ParaBit sensing sequence on the latches of addr's plane:
         *  optional buffer load-in (chained operands re-loaded from the
         *  controller buffer, paper Section 4.2), senseCount sensings,
         *  optional result transfer out. */
        kParaBitSense,
    };

    Kind kind = Kind::kPageRead;
    flash::PhysPageAddr addr;
    /** kParaBitSense only: sensings to book on the plane, and the bytes
     *  moved over the channel before and after them. */
    std::uint32_t senseCount = 0;
    std::uint32_t xferInBytes = 0;
    std::uint32_t xferOutBytes = 0;

    static PhysOp
    paraBitSense(const flash::PhysPageAddr &loc, int senses, Bytes xfer_in,
                 Bytes xfer_out)
    {
        return PhysOp{Kind::kParaBitSense, loc,
                      static_cast<std::uint32_t>(senses),
                      static_cast<std::uint32_t>(xfer_in),
                      static_cast<std::uint32_t>(xfer_out)};
    }
};

/** Page-mapping FTL; see file comment. */
class Ftl
{
  public:
    /** Re-placements attempted after a program failure before the write
     *  is reported as failed (each failure also retires a block, so
     *  repeated failures walk across fresh blocks, not the same one). */
    static constexpr int kMaxProgramRetries = 4;

    /**
     * @param cfg device configuration
     * @param chips chip array, indexed by flash::chipIndex()
     */
    Ftl(const SsdConfig &cfg, std::vector<flash::Chip> &chips);

    /** Logical capacity in pages after over-provisioning. */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /** @name Standard host path. */
    /// @{

    /**
     * Write one logical page of host bytes (data may be null in timing
     * mode): they are copied (whitened when scrambling is on) into the
     * page's payload.  Striped placement, interleaved density.  GC may
     * piggyback.  A program failure retires the block and retries on a
     * fresh one; @return false only when the bounded retries are
     * exhausted.
     */
    bool writePage(Lpn lpn, const BitVector *data, std::vector<PhysOp> &ops);

    /** Read a mapped logical page (ECC-clean): the stored payload,
     *  shared, or a descrambled copy when the LPN is scrambled; null in
     *  timing-only mode.  @p mapped, when given, is @p lpn's entry as
     *  the caller found it (mapping()) with no write since, so the map
     *  is not searched again. */
    flash::Payload readPage(Lpn lpn, std::vector<PhysOp> &ops,
                            const LpnTable::Entry *mapped = nullptr);

    /** @p lpn's map entry, or nullptr when it is unmapped.  Valid until
     *  the next write, trim or GC. */
    const LpnTable::Entry *mapping(Lpn lpn) const { return table_.find(lpn); }

    /** Current physical location of @p lpn, if mapped. */
    std::optional<flash::PhysPageAddr> lookup(Lpn lpn) const;

    /** True iff @p lpn is mapped and its plane is operational (a dead
     *  plane makes the stored copy unreadable — data loss). */
    bool pageAccessible(Lpn lpn);

    /**
     * Unmap @p lpn and invalidate its physical page.  In recovery mode
     * the trim is write-ahead journaled before the mapping is touched;
     * @return false when a power cut struck before the journal record
     * became durable (the trim is then NOT acknowledged and recovery
     * may legitimately keep the page mapped).  @p ops receives the
     * journal-flush program when provided.
     */
    bool trim(Lpn lpn, std::vector<PhysOp> *ops = nullptr);
    /// @}

    /** @name ParaBit placement primitives. */
    /// @{

    /**
     * Place logical pages @p lpn_x (LSB) and @p lpn_y (MSB) on one fresh
     * wordline of @p plane (or a striped plane if nullopt).
     * @return the wordline's pair of physical addresses, or nullopt if
     * the requested plane is dead or program retries were exhausted.
     */
    std::optional<PagePair>
    writePair(Lpn lpn_x, Lpn lpn_y, const flash::Payload &data_x,
              const flash::Payload &data_y, std::vector<PhysOp> &ops,
              std::optional<flash::PlaneIndex> plane = std::nullopt);

    /** LSB-only placement of @p lpn in @p plane (or striped); nullopt
     *  under the same failure conditions as writePair(). */
    std::optional<flash::PhysPageAddr>
    writeLsbOnly(Lpn lpn, const flash::Payload &data,
                 std::vector<PhysOp> &ops,
                 std::optional<flash::PlaneIndex> plane = std::nullopt);

    /**
     * Write @p lpn into the free MSB page of the wordline holding
     * @p lsb_addr.  Fails (returns false) if that MSB is not free.
     */
    bool writeIntoFreeMsb(Lpn lpn, const flash::PhysPageAddr &lsb_addr,
                          const flash::Payload &data,
                          std::vector<PhysOp> &ops);
    /// @}

    /** @name Media management (patrol scrub / RAIN); see ssd/media.hpp. */
    /// @{

    /**
     * Attach the device's RAIN parity controller.  Every data-page
     * program and invalidation is then reported to it, keeping stripe
     * parity consistent across host writes, GC, wear leveling, trims,
     * refresh relocation and ParaBit reallocation.
     */
    void setRain(RainController *rain) { rain_ = rain; }

    /** Attach the device health machine: every bad-block retirement
     *  then charges its error budget (ssd/health.hpp). */
    void setHealth(DeviceHealth *health) { health_ = health; }

    /** LPN mapped to physical page @p a, or kNoLpn: the LPN the page's
     *  OOB names, when the page is valid and that LPN's entry points
     *  back at @p a. */
    Lpn lpnAt(const flash::PhysPageAddr &a) const
    {
        return ownerOf(a).value_or(kNoLpn);
    }

    /**
     * Refresh-relocate the wordline of @p wl (patrol scrubber, elevated
     * predicted RBER): every valid mapped page moves to a fresh
     * location with tag and scrambling preserved, old copies are
     * invalidated copy-then-remap style.  A co-located ParaBit operand
     * pair moves through writePair(), keeping both operands on one
     * fresh wordline.  @return false when any page could not be
     * re-placed (it then keeps its old location — degraded, not lost).
     */
    bool refreshWordline(const flash::PhysPageAddr &wl,
                         std::vector<PhysOp> &ops);

    /**
     * Re-place @p lpn's content (e.g. a RAIN rebuild of a dead-die
     * page) on a fresh page of an operational plane and remap; the old
     * copy is invalidated.  @p data may be null in timing mode.
     */
    bool relocatePage(Lpn lpn, const flash::Payload &data,
                      std::vector<PhysOp> &ops);

    /** Pages re-placed by refresh/repair relocation. */
    std::uint64_t refreshPagesWritten() const { return refreshWrites_.value(); }
    /// @}

    /** @name Crash consistency (SPOR); see file comment. */
    /// @{

    bool recoveryEnabled() const { return cfg_.recovery.enabled; }

    /** Wire the device's fault injector in (power-cut boundaries are
     *  consumed from it; null = no power faults possible). */
    void setFaultInjector(FaultInjector *injector) { injector_ = injector; }

    /** True after a kPowerLoss fault fired: every subsequent flash op
     *  is suppressed until powerCycle(). */
    bool powerLost() const { return powerLost_; }

    /**
     * Take a full checkpoint now (NVMe Flush / shutdown notification):
     * the mapping + allocator snapshot is written to the inactive half
     * of the reserved log region and committed, and the journal tail is
     * cleared.  @return false if recovery is disabled, power is lost,
     * or the cut struck before the commit page (the previous checkpoint
     * generation then remains the durable truth).
     */
    bool checkpoint(std::vector<PhysOp> &ops);

    /**
     * Power restoration after a cut: rebuild the page map (with each
     * LPN's scrambled flag) by checkpoint load + journal replay + OOB
     * scan with sequence-number arbitration (torn wordlines discarded),
     * rebuild the allocator from physical block occupancy, and take a
     * fresh checkpoint.  With recovery disabled the mapping is simply lost
     * (the device stays usable for new writes).  @p ops receives the
     * scan/replay reads for the timing layer.
     */
    RecoveryReport powerCycle(std::vector<PhysOp> &ops);

    /** The modeled content of the reserved log region (tests). */
    const DurableLog &durableLog() const { return durable_; }

    std::uint64_t checkpointsTaken() const { return checkpoints_.value(); }
    std::uint64_t journalRecordsWritten() const
    {
        return journalWrites_.value();
    }
    /** Next OOB sequence number (monotonic across power cycles). */
    std::uint64_t sequence() const { return seq_; }
    /// @}

    /** @name Statistics (endurance / WAF). */
    /// @{
    std::uint64_t hostPagesWritten() const { return hostWrites_.value(); }
    std::uint64_t gcPagesWritten() const { return gcWrites_.value(); }
    std::uint64_t totalPagesWritten() const
    {
        return hostWrites_.value() + gcWrites_.value() +
               parabitWrites_.value() + refreshWrites_.value();
    }
    /** Pages written by ParaBit reallocation (counted via writePair /
     *  writeLsbOnly / writeIntoFreeMsb). */
    std::uint64_t parabitPagesWritten() const
    {
        return parabitWrites_.value();
    }
    std::uint64_t blockErases() const { return erases_.value(); }
    /** Page-map chunks copied on their first write after a checkpoint
     *  (see lpn_table.hpp). */
    std::uint64_t mapChunkCopies() const { return table_.chunkCopies(); }
    std::uint64_t gcRuns() const { return gcRuns_.value(); }
    std::uint64_t wearLevelMoves() const { return wearMoves_.value(); }

    /** @name Reliability counters. */
    /// @{
    std::uint64_t programFailures() const { return programFailures_.value(); }
    std::uint64_t eraseFailures() const { return eraseFailures_.value(); }
    /** Program attempts re-placed after a failure. */
    std::uint64_t programRetries() const { return programRetries_.value(); }
    std::uint64_t retiredBlocks() const { return alloc_.retiredBlocks(); }
    /// @}

    /** Max-min block erase-count spread in @p plane (wear skew). */
    std::uint32_t eraseSpread(flash::PlaneIndex plane);
    double
    writeAmplification() const
    {
        const std::uint64_t host = hostWrites_.value() + parabitWrites_.value();
        return host == 0 ? 1.0
                         : static_cast<double>(totalPagesWritten()) /
                               static_cast<double>(host);
    }
    /// @}

    /** @name Invariant audit (common/invariant.hpp). */
    /// @{

    /**
     * Audit the FTL's structural invariants against the chip array,
     * appending violations to @p r:
     *
     *  - ftl.map.bijection: every mapped LPN's page is valid and reads
     *    back as that LPN through lpnAt() (its OOB names the LPN);
     *  - ftl.map.oob: every mapped page's OOB metadata is present, its
     *    sequence number is below the next one, and its scrambled flag
     *    agrees with the table;
     *  - ftl.blocks.valid_count: every block's incremental valid-page
     *    counter equals a recount of its page states;
     *  - ftl.blocks.free_count: so does its free-page counter;
     *  - ftl.pair.lsb_msb: no wordline has a programmed MSB page over a
     *    free LSB page (MLC shared-wordline program order, which the
     *    ParaBit pairing/chaining placements rely on).
     *
     * Pure observation: no flash traffic, no timing effect.
     */
    void auditInvariants(InvariantReport &r) const;

    /**
     * Deliberately corrupt the mapping of @p lpn — its table entry is
     * rerouted to @p to (default: one wordline over) without touching
     * flash, so the page there does not read back as @p lpn — so
     * negative tests and the parabit-model counterexample path can
     * prove the audit fires.  @return false when @p lpn is unmapped.
     * Test-only.
     */
    bool debugCorruptMapping(
        Lpn lpn, std::optional<flash::PhysPageAddr> to = std::nullopt);
    /// @}

    /** Direct chip access for the controller layer. */
    flash::Chip &chipAt(const flash::PhysPageAddr &a);

    Allocator &allocator() { return alloc_; }

  private:
    /** Page shapes the allocator hands out (see allocator.hpp). */
    enum class Shape : std::uint8_t
    {
        kPage,    ///< next page in interleaved order
        kLsbOnly, ///< next LSB page, its MSB left free
        kPair,    ///< a fresh wordline's LSB and MSB, programmed together
    };

    /** One request to place(); fields left out take the defaults. */
    struct Placement
    {
        Shape shape = Shape::kPage;
        /** Fixed plane; nullopt takes the next alive plane per attempt. */
        std::optional<flash::PlaneIndex> plane = std::nullopt;
        OobTag tag = OobTag::kHostData;
        bool scrambled = false;
        Lpn lpn = kNoLpn;
        flash::Payload data{};
        /** kPair only: the page programmed into the wordline's MSB. */
        Lpn msbLpn = kNoLpn;
        flash::Payload msbData{};
        /** Run static wear levelling beside threshold GC. */
        bool levelWear = true;
        /** Charge programRetries_ for every failed attempt. */
        bool countRetries = true;
        /** A plane without space ends the placement instead of the next
         *  attempt trying another plane. */
        bool stopWhenFull = false;
    };

    /**
     * The one placement loop: up to kMaxProgramRetries attempts, each
     * picking the plane, allocating @p p's shape (GC first if needed)
     * and programming it with @p p's tag and flags.  A failed program
     * retires its block, so the next attempt lands on a fresh one; for a
     * pair whose MSB program fails, the LSB just written is invalidated.
     * Stops when power is lost.  Mapping, write counters and logging
     * stay with the caller.  @return the placed page (for kPair the LSB;
     * the MSB shares its wordline), or nullopt.
     */
    std::optional<flash::PhysPageAddr> place(const Placement &p,
                                             std::vector<PhysOp> &ops);
    /** Allocate @p shape in @p plane (kPair: the pair's LSB); no GC. */
    std::optional<flash::PhysPageAddr> allocate(flash::PlaneIndex plane,
                                                Shape shape);
    /** allocate(), running GC (and wear levelling if @p level_wear)
     *  first when the plane is short of free blocks, and GC again when
     *  it is full.  nullopt when the plane has no space even after GC
     *  (full, or its blocks were retired by faults). */
    std::optional<flash::PhysPageAddr>
    allocateOrGc(flash::PlaneIndex plane, Shape shape, bool level_wear,
                 std::vector<PhysOp> &ops);
    /** Program the next @p shape page of @p plane, walking past the
     *  blocks failed programs retire; no GC.  nullopt when the plane
     *  runs out of pages or power is cut. */
    std::optional<flash::PhysPageAddr>
    programNextInPlane(flash::PlaneIndex plane, Shape shape,
                       const flash::Payload &data, std::vector<PhysOp> &ops,
                       Lpn lpn, OobTag tag, bool scrambled);
    /** Move every valid page of @p block to fresh pages of the same
     *  plane, journal kErase, then erase the block (retiring it if the
     *  erase fails).  @return false when a page could not be moved (no
     *  space, or power cut): the block then keeps its remaining valid
     *  pages and is not erased.  Shared by GC and wear levelling. */
    bool evacuateBlock(flash::PlaneIndex plane, std::uint32_t block,
                       std::vector<PhysOp> &ops);

    /** The block holding @p a, or nullptr if it was never touched. */
    const flash::Block *blockAt(const flash::PhysPageAddr &a) const;
    /** Invalidate the physical page at @p a, folding it out of RAIN
     *  parity first (invalidate drops the payload the XOR needs).  The
     *  only invalidation gateway, as programPhys is for programs. */
    void invalidatePhys(const flash::PhysPageAddr &a);
    /** Read the page at @p src and re-place it with @p tag
     *  (refreshWordline's per-page path). */
    bool refreshOnePage(const flash::PhysPageAddr &src, Lpn lpn, OobTag tag,
                        bool lsb_only, std::vector<PhysOp> &ops);
    /** Point @p lpn at @p a with @p scrambled, invalidating its
     *  previous page. */
    void mapLpn(Lpn lpn, const flash::PhysPageAddr &a, bool scrambled);
    /** The LPN whose entry points at valid page @p a, named by the
     *  page's OOB (a page programmed without OOB names kNoLpn, which
     *  the wrapped scratch cursor can map); nullopt when none does. */
    std::optional<Lpn> ownerOf(const flash::PhysPageAddr &a) const;
    /** Whether @p lpn is mapped with whitened bits. */
    bool isScrambled(Lpn lpn) const
    {
        const LpnTable::Entry *e = table_.find(lpn);
        return e && e->scrambled;
    }
    void collectGarbage(flash::PlaneIndex plane, std::vector<PhysOp> &ops);
    void maybeWearLevel(flash::PlaneIndex plane, std::vector<PhysOp> &ops);
    /** Program @p a (attempt is charged to @p ops either way) with OOB
     *  {@p lpn, fresh seq, @p tag, @p scrambled}; on an injected
     *  program failure the block is retired and false returned; on a
     *  mid-program power cut the wordline is torn and false returned. */
    bool programPhys(const flash::PhysPageAddr &a,
                     const flash::Payload &data, std::vector<PhysOp> &ops,
                     Lpn lpn, OobTag tag, bool scrambled = false);
    bool planeAlive(flash::PlaneIndex plane);
    /** Next striped plane that is still operational (fatal if none). */
    flash::PlaneIndex pickAlivePlane();

    /** @name Crash-consistency internals (ftl_recovery.cpp). */
    /// @{
    /** Consume one PhysOp boundary from the injector; latches
     *  powerLost_ on a cut.  kNone means the op may proceed. */
    PowerCut powerBoundary(bool is_program);
    /** Write-ahead append @p r: the record is durable (and pushed to
     *  durable_) only if its log-page program completed pre-cut. */
    bool journalAppend(JournalRecord r, std::vector<PhysOp> &ops);
    /** Program the next free SLC log page (skipping bad pages); when
     *  the active half is full, rotates via checkpoint() unless
     *  @p allow_rotate is false (checkpoint's own pages). */
    bool logProgram(std::vector<PhysOp> &ops, bool allow_rotate = true);
    bool eraseHalf(int half, std::vector<PhysOp> &ops);
    flash::PhysPageAddr logAddr(int half, std::uint32_t idx) const;
    /** SLC log pages per ping-pong half, device-wide. */
    std::uint32_t halfPages() const;
    std::uint64_t linearBlockId(flash::PlaneIndex plane,
                                std::uint32_t block) const;
    void maybeCheckpoint(std::vector<PhysOp> &ops);
    RecoveryReport recover(std::vector<PhysOp> &ops);
    /** Re-pool fully-free blocks per plane from physical occupancy. */
    void rebuildAllocator();
    /** Capacitor flush: dump the unpaired-LSB buffer to the durable
     *  log (called exactly when a power cut latches, and on a clean
     *  power cycle).  See PlpEntry. */
    void plpFlush();
    /** Re-program capacitor-flushed LSB copies whose flash page did
     *  not survive the torn wordline. */
    void restorePlpEntries(RecoveryReport &rep, std::vector<PhysOp> &ops);
    /// @}

    SsdConfig cfg_;
    std::vector<flash::Chip> *chips_;
    Allocator alloc_;
    Scrambler scrambler_;
    std::uint64_t logicalPages_;
    /** The page map.  Host writes set each entry's scrambled flag,
     *  ParaBit placements (raw data) clear it, and GC, refresh and
     *  relocation keep it. */
    LpnTable table_;

    /** @name Registered instruments (obs/metrics.hpp); value() feeds
     *  the accessor API, the registry feeds snapshots and dumps. */
    /// @{
    obs::Counter hostWrites_{"ftl.pages.host_written"};
    obs::Counter gcWrites_{"ftl.pages.gc_written"};
    obs::Counter parabitWrites_{"ftl.pages.parabit_written"};
    obs::Counter erases_{"ftl.block_erases"};
    obs::Counter gcRuns_{"ftl.gc.runs"};
    obs::Counter wearMoves_{"ftl.wear_level.moves"};
    obs::Counter programFailures_{"ftl.program.failures"};
    obs::Counter eraseFailures_{"ftl.erase.failures"};
    obs::Counter programRetries_{"ftl.program.retries"};
    obs::Counter refreshWrites_{"ftl.pages.refresh_written"};
    /// @}
    RainController *rain_ = nullptr;
    DeviceHealth *health_ = nullptr;
    std::uint32_t gcThresholdBlocks_;
    bool inGc_ = false;

    /** @name Crash-consistency state. */
    /// @{
    FaultInjector *injector_ = nullptr;
    bool powerLost_ = false;
    /** Monotonic OOB/journal sequence stream (0 = never assigned). */
    std::uint64_t seq_ = 1;
    DurableLog durable_;
    int logHalf_ = 0;          ///< half holding the committed generation
    std::uint32_t logHead_ = 0; ///< next free log page in logHalf_
    std::uint32_t programsSinceCkpt_ = 0;
    bool inCheckpoint_ = false;
    obs::Counter checkpoints_{"ftl.ckpt.taken"};
    obs::Counter journalWrites_{"ftl.journal.records"};
    obs::Counter logErases_{"ftl.log.erases"};
    /** Unpaired interleaved LSB writes awaiting their partner MSB
     *  program, keyed by the LSB page's linear index (PLP-protected
     *  controller RAM; at most one entry per plane write cursor). */
    std::unordered_map<std::uint64_t, PlpEntry> plpBuffer_;
    /// @}
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_FTL_HPP_
