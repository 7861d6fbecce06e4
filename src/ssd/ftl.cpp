#include "ssd/ftl.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hpp"
#include "obs/profiler.hpp"
#include "ssd/health.hpp"
#include "ssd/rain.hpp"

namespace parabit::ssd {

Ftl::Ftl(const SsdConfig &cfg, std::vector<flash::Chip> &chips)
    : cfg_(cfg), chips_(&chips), alloc_(cfg.geometry),
      scrambler_(cfg.seed ^ 0x5C4A3B2E1D0FULL)
{
    double usable_blocks = cfg_.geometry.blocksPerPlane;
    if (cfg_.recovery.enabled) {
        const std::uint32_t r = cfg_.recovery.reservedBlocksPerPlane;
        if (r < 2 || r % 2 != 0 || r + 2 >= cfg_.geometry.blocksPerPlane)
            fatal("Ftl: recovery.reservedBlocksPerPlane must be even, >= 2 "
                  "and leave room for data blocks");
        // The top r blocks of every plane become the SLC checkpoint +
        // journal region, split into two ping-pong halves.
        for (PlaneIndex p = 0; p < alloc_.planeCount(); ++p)
            for (std::uint32_t i = 0; i < r; ++i)
                alloc_.reserveBlock(p, cfg_.geometry.blocksPerPlane - 1 - i);
        usable_blocks -= r;
    }
    const double usable = (1.0 - cfg_.overProvisioning) * usable_blocks /
                          cfg_.geometry.blocksPerPlane;
    logicalPages_ = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(cfg_.geometry.totalPages()) * usable));
    gcThresholdBlocks_ = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(cfg_.gcFreeBlockThreshold *
                                      cfg_.geometry.blocksPerPlane));
}

flash::Chip &
Ftl::chipAt(const flash::PhysPageAddr &a)
{
    const std::size_t idx =
        static_cast<std::size_t>(a.channel) * cfg_.geometry.chipsPerChannel +
        a.chip;
    return (*chips_).at(idx);
}

const flash::Block *
Ftl::blockAt(const flash::PhysPageAddr &a) const
{
    const std::size_t idx =
        static_cast<std::size_t>(a.channel) * cfg_.geometry.chipsPerChannel +
        a.chip;
    return (*chips_).at(idx).plane(a.die, a.plane).blockIfExists(a.block);
}

flash::ChipPageAddr
Ftl::chipAddr(const flash::PhysPageAddr &a) const
{
    return flash::ChipPageAddr{a.die, a.plane, a.block, a.wordline, a.msb};
}

void
Ftl::invalidatePhys(const flash::PhysPageAddr &a)
{
    if (rain_)
        rain_->willInvalidate(a);
    chipAt(a).plane(a.die, a.plane).block(a.block).invalidate(a.wordline,
                                                              a.msb);
}

std::optional<Lpn>
Ftl::ownerOf(const flash::PhysPageAddr &a) const
{
    const flash::Block *blk = blockAt(a);
    if (!blk || blk->pageState(a.wordline, a.msb) != flash::PageState::kValid)
        return std::nullopt;
    const flash::PageOob *oob = blk->pageOob(a.wordline, a.msb);
    const Lpn lpn = oob ? oob->lpn : kNoLpn;
    const LpnTable::Entry *e = table_.find(lpn);
    if (!e || !(e->addr == a))
        return std::nullopt;
    return lpn;
}

bool
Ftl::programPhys(const flash::PhysPageAddr &a, const flash::Payload &data,
                 bool for_gc, std::vector<PhysOp> &ops, Lpn lpn, OobTag tag,
                 bool scrambled)
{
    const PowerCut cut = powerBoundary(true);
    if (cut == PowerCut::kBeforeOp)
        return false; // power was cut before tPROG started
    // The attempt costs program time whether or not it sticks.
    ops.push_back(PhysOp{PhysOp::Kind::kPageProgram, a, for_gc});
    const flash::PageOob oob{lpn, seq_++, static_cast<std::uint8_t>(tag),
                             scrambled};
    if (!chipAt(a).programPage(chipAddr(a), data,
                               lpn == kNoLpn ? nullptr : &oob)) {
        ++programFailures_;
        const PlaneIndex p = planeIndex(
            cfg_.geometry, PlaneCoord{a.channel, a.chip, a.die, a.plane});
        alloc_.retireBlock(p, a.block);
        if (health_)
            health_->noteRetiredBlock();
        journalAppend(JournalRecord{JournalRecord::Kind::kRetire, 0, 0,
                                    linearBlockId(p, a.block)},
                      ops);
        logWarn("Ftl: program failure, retired block " +
                std::to_string(a.block) + " of plane " + std::to_string(p));
        return false;
    }
    if (cut == PowerCut::kMidProgram) {
        // tPROG was interrupted: the shared-wordline cells are left in
        // indeterminate states, corrupting the paired page as well.
        chipAt(a).markTornWordline(chipAddr(a));
        return false;
    }
    ++programsSinceCkpt_;
    if (recoveryEnabled() && lpn != kNoLpn) {
        // Paired-page protection: an interleaved LSB write stays in the
        // controller's PLP buffer until its partner MSB program
        // completes untorn (see PlpEntry).  ParaBit LSB-only layouts
        // are excluded — their free MSBs are filled via the explicit
        // backup protocol of writeIntoFreeMsb() instead.
        flash::PhysPageAddr lsb = a;
        lsb.msb = false;
        const std::uint64_t key = flash::linearPageIndex(cfg_.geometry, lsb);
        if (a.msb) {
            plpBuffer_.erase(key);
        } else if (tag == OobTag::kHostData || tag == OobTag::kGcRelocated) {
            flash::PhysPageAddr msb = a;
            msb.msb = true;
            if (chipAt(a).pageState(chipAddr(msb)) == flash::PageState::kFree) {
                plpBuffer_[key] = PlpEntry{lpn, oob.seq, data, scrambled};
            }
        }
    }
    if (rain_)
        rain_->onProgram(a, ops);
    return true;
}

bool
Ftl::planeAlive(PlaneIndex plane)
{
    const flash::PhysPageAddr a = planeAddr(cfg_.geometry, plane);
    return chipAt(a).planeOperational(a.die, a.plane);
}

PlaneIndex
Ftl::pickAlivePlane()
{
    for (std::uint32_t i = 0; i < alloc_.planeCount(); ++i) {
        const PlaneIndex p = alloc_.nextPlane();
        if (planeAlive(p))
            return p;
    }
    fatal("Ftl: no operational plane left");
    return 0;
}

void
Ftl::mapLpn(Lpn lpn, const flash::PhysPageAddr &a, bool scrambled)
{
    const LpnTable::Entry old = table_.assign(lpn, a, scrambled);
    if (old.mapped)
        invalidatePhys(old.addr);
}

void
Ftl::collectGarbage(PlaneIndex plane, std::vector<PhysOp> &ops)
{
    if (inGc_)
        return; // GC relocations must not recurse
    inGc_ = true;
    ++gcRuns_;

    const flash::PhysPageAddr base = planeAddr(cfg_.geometry, plane);
    const flash::Plane &pl = chipAt(base).plane(base.die, base.plane);

    // Greedy victim selection: the touched, non-active block with the
    // fewest valid pages (untouched blocks are still free).
    std::int64_t victim = -1;
    std::uint32_t best_valid = cfg_.geometry.pagesPerBlock() + 1;
    for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerPlane; ++b) {
        const flash::Block *blk = pl.blockIfExists(b);
        if (!blk || alloc_.isActiveBlock(plane, b) ||
            alloc_.isReserved(plane, b))
            continue;
        // Only consider blocks that are fully written or hold garbage.
        if (blk->freePages() == cfg_.geometry.pagesPerBlock())
            continue; // erased / never used: not a GC victim
        if (blk->validPages() < best_valid) {
            best_valid = blk->validPages();
            victim = b;
        }
    }
    // A victim that cannot be emptied (plane full, or its blocks
    // fault-retired) keeps its remaining valid pages and is never
    // erased: degraded, not corrupted.
    if (victim >= 0 &&
        !evacuateBlock(plane, static_cast<std::uint32_t>(victim), ops) &&
        !powerLost_)
        logWarn("Ftl::collectGarbage: no space to relocate in plane " +
                std::to_string(plane) + "; aborting GC");
    inGc_ = false;
}

std::uint32_t
Ftl::eraseSpread(PlaneIndex plane)
{
    const flash::PhysPageAddr base = planeAddr(cfg_.geometry, plane);
    const flash::Plane &pl = chipAt(base).plane(base.die, base.plane);
    std::uint32_t lo = UINT32_MAX, hi = 0;
    for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerPlane; ++b) {
        const flash::Block *blk = pl.blockIfExists(b);
        const std::uint32_t e = blk ? blk->eraseCount() : 0;
        lo = std::min(lo, e);
        hi = std::max(hi, e);
    }
    return hi - lo;
}

void
Ftl::maybeWearLevel(PlaneIndex plane, std::vector<PhysOp> &ops)
{
    if (cfg_.wearLevelThreshold == 0 || inGc_)
        return;

    const flash::PhysPageAddr base = planeAddr(cfg_.geometry, plane);
    const flash::Plane &pl = chipAt(base).plane(base.die, base.plane);

    // Find the coldest block holding static (fully valid) data and the
    // overall wear range.
    std::int64_t coldest = -1;
    std::uint32_t cold_erases = UINT32_MAX, hottest = 0;
    for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerPlane; ++b) {
        if (alloc_.isReserved(plane, b))
            continue; // the log region does not take part in leveling
        const flash::Block *blk = pl.blockIfExists(b);
        const std::uint32_t e = blk ? blk->eraseCount() : 0;
        hottest = std::max(hottest, e);
        if (!blk || alloc_.isActiveBlock(plane, b))
            continue;
        if (blk->validPages() == 0)
            continue; // no data worth migrating
        if (e < cold_erases) {
            cold_erases = e;
            coldest = b;
        }
    }
    if (coldest < 0 || hottest - cold_erases < cfg_.wearLevelThreshold)
        return;
    if (alloc_.freeBlocks(plane) == 0)
        return;

    // Migrate the cold block's valid pages onto a pooled (well-worn,
    // thanks to FIFO recycling) free block, then recycle the cold one.
    // Out of relocation targets, the cold block must NOT be erased: its
    // unmigrated pages are still the only copy.
    inGc_ = true; // reuse the recursion guard: migration must not nest
    ++wearMoves_;
    if (!evacuateBlock(plane, static_cast<std::uint32_t>(coldest), ops) &&
        !powerLost_)
        logWarn("Ftl: wear-level migration ran out of space in plane " +
                std::to_string(plane) + "; cold block kept");
    inGc_ = false;
}

bool
Ftl::evacuateBlock(PlaneIndex plane, std::uint32_t block,
                   std::vector<PhysOp> &ops)
{
    const flash::PhysPageAddr base = planeAddr(cfg_.geometry, plane, block);
    flash::Chip &chip = chipAt(base);
    const flash::Block &blk = chip.plane(base.die, base.plane).block(block);
    for (std::uint32_t wl = 0; wl < cfg_.geometry.wordlinesPerBlock; ++wl) {
        for (const bool msb : {false, true}) {
            if (blk.pageState(wl, msb) != flash::PageState::kValid)
                continue;
            flash::PhysPageAddr src = base;
            src.wordline = wl;
            src.msb = msb;
            // Unmapped valid pages (pair backups mid-protocol) move too.
            const std::optional<Lpn> owner = ownerOf(src);
            const Lpn lpn = owner.value_or(kNoLpn);
            const bool scrambled = owner && isScrambled(lpn);

            if (powerBoundary(false) != PowerCut::kNone)
                return false;
            const flash::Payload data = chip.readPage(chipAddr(src));
            ops.push_back(PhysOp{PhysOp::Kind::kPageRead, src, true});
            const auto dst =
                programNextInPlane(plane, Shape::kPage, data, true, ops, lpn,
                                   OobTag::kGcRelocated, scrambled);
            if (!dst)
                return false;
            ++gcWrites_;
            if (owner)
                mapLpn(lpn, *dst, scrambled); // invalidates src
            else
                invalidatePhys(src);
        }
    }
    // Journal the erase ahead of issuing it: after a checkpoint this
    // block would otherwise be outside the bounded recovery scan even
    // though it may be reused for fresh data.  A cut here leaves the
    // block unerased, holding only invalid pages.
    const JournalRecord erase{JournalRecord::Kind::kErase, 0, 0,
                              linearBlockId(plane, block)};
    if (!journalAppend(erase, ops) || powerBoundary(false) != PowerCut::kNone)
        return true;
    ops.push_back(PhysOp{PhysOp::Kind::kBlockErase, base, true});
    if (chip.eraseBlock(base.die, base.plane, block)) {
        ++erases_;
        alloc_.noteErased(plane, block);
        return true;
    }
    ++eraseFailures_;
    alloc_.retireBlock(plane, block);
    if (health_)
        health_->noteRetiredBlock();
    journalAppend(JournalRecord{JournalRecord::Kind::kRetire, 0, 0,
                                linearBlockId(plane, block)},
                  ops);
    logWarn("Ftl: erase failure, retired block " + std::to_string(block) +
            " of plane " + std::to_string(plane));
    return true;
}

std::optional<flash::PhysPageAddr>
Ftl::allocate(PlaneIndex plane, Shape shape)
{
    switch (shape) {
      case Shape::kPage: return alloc_.nextPage(plane);
      case Shape::kLsbOnly: return alloc_.nextLsbOnly(plane);
      case Shape::kPair: {
        const auto pair = alloc_.nextPair(plane);
        if (!pair)
            return std::nullopt;
        return pair->lsb;
      }
    }
    return std::nullopt;
}

std::optional<flash::PhysPageAddr>
Ftl::allocateOrGc(PlaneIndex plane, Shape shape, bool level_wear,
                  std::vector<PhysOp> &ops)
{
    if (alloc_.freeBlocks(plane) < gcThresholdBlocks_) {
        collectGarbage(plane, ops);
        if (level_wear)
            maybeWearLevel(plane, ops);
    }
    auto a = allocate(plane, shape);
    if (!a) {
        collectGarbage(plane, ops);
        a = allocate(plane, shape);
    }
    return a;
}

std::optional<flash::PhysPageAddr>
Ftl::programNextInPlane(PlaneIndex plane, Shape shape,
                        const flash::Payload &data, bool for_gc,
                        std::vector<PhysOp> &ops, Lpn lpn, OobTag tag,
                        bool scrambled)
{
    // A failed program retires the block under the cursor, so the next
    // allocation walks on to a fresh one; the plane's pages bound it.
    auto a = allocate(plane, shape);
    while (a && !powerLost_ &&
           !programPhys(*a, data, for_gc, ops, lpn, tag, scrambled)) {
        ++programRetries_;
        a = allocate(plane, shape);
    }
    if (powerLost_)
        return std::nullopt;
    return a;
}

std::optional<flash::PhysPageAddr>
Ftl::place(const Placement &p, std::vector<PhysOp> &ops)
{
    for (int attempt = 0; attempt < kMaxProgramRetries; ++attempt) {
        if (powerLost_)
            break; // cut: the placement is never acknowledged
        const PlaneIndex plane = p.plane ? *p.plane : pickAlivePlane();
        const auto a = allocateOrGc(plane, p.shape, p.levelWear, ops);
        if (!a) {
            if (p.stopWhenFull)
                break;
            // Plane full even after GC (e.g. fault-retired blocks); a
            // striped next attempt moves to another plane.
            if (p.countRetries)
                ++programRetries_;
            continue;
        }
        bool ok = programPhys(*a, p.data, p.forGc, ops, p.lpn, p.tag,
                              p.scrambled);
        if (ok && p.shape == Shape::kPair) {
            flash::PhysPageAddr msb = *a;
            msb.msb = true;
            ok = programPhys(msb, p.msbData, p.forGc, ops, p.msbLpn, p.tag,
                             p.scrambled);
            // The block was retired (or the program torn by a power
            // cut); the LSB half just written goes with it — mark it
            // garbage so GC never relocates it.  Neither LPN's mapping
            // has moved (copy-then-remap), so a cut here fully rolls
            // the pair placement back.
            if (!ok)
                invalidatePhys(*a);
        }
        if (ok)
            return a;
        if (p.countRetries)
            ++programRetries_;
    }
    return std::nullopt;
}

bool
Ftl::writePage(Lpn lpn, const BitVector *data, std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    // Only the host path bounds the LPN: the ParaBit placements also
    // take the controller's scratch LPNs (see ROADMAP).
    if (lpn >= logicalPages_)
        fatal("Ftl::writePage: LPN beyond logical capacity");
    // The host's bytes enter flash here, as one new payload.
    const bool scramble = cfg_.scrambleHostData && data;
    flash::Payload payload;
    if (scramble)
        payload = flash::makePayload(scrambler_.scrambled(*data, lpn));
    else if (data)
        payload = flash::makePayload(*data);
    const auto a = place({.tag = OobTag::kHostData,
                          .scrambled = scramble,
                          .lpn = lpn,
                          .data = std::move(payload)},
                         ops);
    if (!a) {
        if (!powerLost_)
            logWarn("Ftl::writePage: program retries exhausted for LPN " +
                    std::to_string(lpn));
        return false;
    }
    ++hostWrites_;
    mapLpn(lpn, *a, scramble);
    maybeCheckpoint(ops);
    return true;
}

flash::Payload
Ftl::readPage(Lpn lpn, std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    const LpnTable::Entry *e = table_.find(lpn);
    if (!e)
        fatal("Ftl::readPage: unmapped LPN");
    if (powerBoundary(false) != PowerCut::kNone) // power is down
        return flash::makePayload(BitVector(cfg_.geometry.pageBits(), false));
    ops.push_back(PhysOp{PhysOp::Kind::kPageRead, e->addr, false});
    flash::Payload page = chipAt(e->addr).readPage(chipAddr(e->addr));
    // Whitened bits stay in flash; the reader gets a descrambled copy.
    if (cfg_.scrambleHostData && e->scrambled && page)
        return flash::makePayload(scrambler_.scrambled(*page, lpn));
    return page;
}

std::optional<flash::PhysPageAddr>
Ftl::lookup(Lpn lpn) const
{
    const LpnTable::Entry *e = table_.find(lpn);
    if (!e)
        return std::nullopt;
    return e->addr;
}

bool
Ftl::pageAccessible(Lpn lpn)
{
    const LpnTable::Entry *e = table_.find(lpn);
    return e && chipAt(e->addr).planeOperational(e->addr.die, e->addr.plane);
}

bool
Ftl::trim(Lpn lpn, std::vector<PhysOp> *ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    if (powerLost_)
        return false;
    const LpnTable::Entry *e = table_.find(lpn);
    if (!e)
        return true;
    const flash::PhysPageAddr a = e->addr;
    // Write-ahead: the trim record must be durable before the mapping
    // is dropped, otherwise recovery would resurrect the page (its OOB
    // entry is still the newest mapping on flash).
    std::vector<PhysOp> local;
    std::vector<PhysOp> &o = ops ? *ops : local;
    if (!journalAppend(JournalRecord{JournalRecord::Kind::kTrim, 0, lpn, 0},
                       o))
        return false; // cut before the record flushed: trim not acked
    invalidatePhys(a);
    table_.erase(lpn);
    // A buffered unpaired-LSB copy of this LPN must die with the trim,
    // or a later capacitor flush would resurrect the trimmed page.
    for (auto pit = plpBuffer_.begin(); pit != plpBuffer_.end();) {
        if (pit->second.lpn == lpn)
            pit = plpBuffer_.erase(pit);
        else
            ++pit;
    }
    return true;
}

std::optional<PagePair>
Ftl::writePair(Lpn lpn_x, Lpn lpn_y, const flash::Payload &data_x,
               const flash::Payload &data_y, std::vector<PhysOp> &ops,
               std::optional<PlaneIndex> plane)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    if (plane && !planeAlive(*plane))
        return std::nullopt;
    const auto lsb = place({.shape = Shape::kPair,
                            .plane = plane,
                            .tag = OobTag::kParabitPair,
                            .lpn = lpn_x,
                            .data = data_x,
                            .msbLpn = lpn_y,
                            .msbData = data_y,
                            // No wear levelling for pairs: running it
                            // here would move when levelling runs, and
                            // every tick after (see ROADMAP).
                            .levelWear = false},
                           ops);
    if (!lsb) {
        if (!powerLost_)
            logWarn("Ftl::writePair: program retries exhausted");
        return std::nullopt;
    }
    PagePair pair{*lsb, *lsb};
    pair.msb.msb = true;
    parabitWrites_ += 2;
    // ParaBit operands are stored raw (scrambling off, Sec 4.3.2).
    mapLpn(lpn_x, pair.lsb, false);
    mapLpn(lpn_y, pair.msb, false);
    maybeCheckpoint(ops);
    return pair;
}

std::optional<flash::PhysPageAddr>
Ftl::writeLsbOnly(Lpn lpn, const flash::Payload &data,
                  std::vector<PhysOp> &ops, std::optional<PlaneIndex> plane)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    if (plane && !planeAlive(*plane))
        return std::nullopt;
    const auto a = place({.shape = Shape::kLsbOnly,
                          .plane = plane,
                          .tag = OobTag::kParabitLsbOnly,
                          .lpn = lpn,
                          .data = data},
                         ops);
    if (!a) {
        if (!powerLost_)
            logWarn("Ftl::writeLsbOnly: program retries exhausted");
        return std::nullopt;
    }
    ++parabitWrites_;
    mapLpn(lpn, *a, false);
    maybeCheckpoint(ops);
    return a;
}

bool
Ftl::writeIntoFreeMsb(Lpn lpn, const flash::PhysPageAddr &lsb_addr,
                      const flash::Payload &data, std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    flash::PhysPageAddr msb = lsb_addr;
    msb.msb = true;
    flash::Chip &chip = chipAt(msb);
    if (chip.pageState(chipAddr(msb)) != flash::PageState::kFree)
        return false;

    // Crash hazard: a power cut mid-tPROG of this MSB tears the
    // wordline and takes the *already acknowledged* LSB page with it.
    // In recovery mode, first copy that LSB aside (backup, higher
    // sequence number, mapping untouched); after the MSB is durable a
    // journaled remap re-asserts the original location and releases the
    // copy.  Whatever prefix of that protocol a cut leaves behind,
    // arbitration resolves to intact data (copy-then-remap).
    std::optional<flash::PhysPageAddr> backup;
    Lpn lsb_lpn = kNoLpn;
    if (recoveryEnabled()) {
        if (const std::optional<Lpn> owner = ownerOf(lsb_addr)) {
            lsb_lpn = *owner;
            if (powerBoundary(false) != PowerCut::kNone)
                return false;
            const flash::Payload copy = chip.readPage(chipAddr(lsb_addr));
            ops.push_back(PhysOp{PhysOp::Kind::kPageRead, lsb_addr, false});
            const PlaneIndex p = planeIndex(
                cfg_.geometry, PlaneCoord{lsb_addr.channel, lsb_addr.chip,
                                          lsb_addr.die, lsb_addr.plane});
            // No GC while placing the copy: a GC run here could relocate
            // the very LSB we are protecting out from under the
            // caller's placement decision.
            backup = programNextInPlane(p, Shape::kLsbOnly, copy, false, ops,
                                        lsb_lpn, OobTag::kPairBackup,
                                        isScrambled(lsb_lpn));
            if (!backup)
                return false; // cannot protect the LSB: refuse the drop
            ++parabitWrites_; // protocol overhead traffic
        }
    }

    if (!programPhys(msb, data, false, ops, lpn, OobTag::kParabitChainMsb)) {
        // Block retired or power cut; roll the protocol back.
        if (backup && !powerLost_)
            invalidatePhys(*backup);
        return false;
    }
    if (backup) {
        // MSB durable: journal the drop itself (its block may be
        // outside the bounded scan set) and re-assert the original LSB
        // location with a sequence number above the backup's, then drop
        // the copy.  A cut between these steps leaves the backup as the
        // arbitration winner — same data, different page.
        journalAppend(
            JournalRecord{JournalRecord::Kind::kRemap, 0, lpn,
                          flash::linearPageIndex(cfg_.geometry, msb)},
            ops);
        journalAppend(
            JournalRecord{JournalRecord::Kind::kRemap, 0, lsb_lpn,
                          flash::linearPageIndex(cfg_.geometry, lsb_addr)},
            ops);
        if (!powerLost_)
            invalidatePhys(*backup);
    } else if (recoveryEnabled()) {
        journalAppend(
            JournalRecord{JournalRecord::Kind::kRemap, 0, lpn,
                          flash::linearPageIndex(cfg_.geometry, msb)},
            ops);
    }
    ++parabitWrites_;
    mapLpn(lpn, msb, false);
    maybeCheckpoint(ops);
    return true;
}

bool
Ftl::refreshOnePage(const flash::PhysPageAddr &src, Lpn lpn, OobTag tag,
                    bool lsb_only, std::vector<PhysOp> &ops)
{
    if (powerBoundary(false) != PowerCut::kNone)
        return false;
    flash::Payload data = chipAt(src).readPage(chipAddr(src));
    ops.push_back(PhysOp{PhysOp::Kind::kPageRead, src, true});
    const bool scrambled = isScrambled(lpn);
    const auto a = place({.shape = lsb_only ? Shape::kLsbOnly : Shape::kPage,
                          .tag = tag,
                          .forGc = true,
                          .scrambled = scrambled,
                          .lpn = lpn,
                          .data = std::move(data)},
                         ops);
    if (!a) {
        if (!powerLost_)
            logWarn("Ftl::refreshOnePage: program retries exhausted for "
                    "LPN " +
                    std::to_string(lpn));
        return false;
    }
    ++refreshWrites_;
    mapLpn(lpn, *a, scrambled);
    maybeCheckpoint(ops);
    return true;
}

bool
Ftl::refreshWordline(const flash::PhysPageAddr &wl, std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    if (powerLost_)
        return false;
    flash::PhysPageAddr lsb = wl;
    lsb.msb = false;
    flash::PhysPageAddr msb = wl;
    msb.msb = true;
    flash::Chip &chip = chipAt(wl);
    const bool lsb_valid =
        chip.pageState(chipAddr(lsb)) == flash::PageState::kValid;
    const bool msb_valid =
        chip.pageState(chipAddr(msb)) == flash::PageState::kValid;
    const Lpn lsb_lpn = lsb_valid ? lpnAt(lsb) : kNoLpn;
    const Lpn msb_lpn = msb_valid ? lpnAt(msb) : kNoLpn;

    auto tag_of = [&](const flash::PhysPageAddr &a) {
        const flash::PageOob *oob = chip.pageOob(chipAddr(a));
        return oob ? static_cast<OobTag>(oob->tag) : OobTag::kNone;
    };
    auto is_parabit = [](OobTag t) {
        return t == OobTag::kParabitPair || t == OobTag::kParabitLsbOnly ||
               t == OobTag::kParabitChainMsb;
    };

    // A co-located ParaBit operand pair moves atomically through
    // writePair (copy-then-remap): both operands land on one fresh
    // wordline, so co-location — and mid-refresh readability — hold.
    // ParaBit operands are stored raw, so the writePair path's
    // scrambling reset is a no-op for them.
    if (lsb_valid && msb_valid && lsb_lpn != kNoLpn && msb_lpn != kNoLpn &&
        is_parabit(tag_of(lsb)) && is_parabit(tag_of(msb))) {
        if (powerBoundary(false) != PowerCut::kNone)
            return false;
        const flash::Payload dx = chip.readPage(chipAddr(lsb));
        ops.push_back(PhysOp{PhysOp::Kind::kPageRead, lsb, true});
        const flash::Payload dy = chip.readPage(chipAddr(msb));
        ops.push_back(PhysOp{PhysOp::Kind::kPageRead, msb, true});
        const auto pair = writePair(lsb_lpn, msb_lpn, dx, dy, ops);
        return pair.has_value();
    }

    // Everything else relocates per page, preserving tag semantics:
    // LSB-only placements keep their free-MSB property, data pages
    // move as GC-style copies with their scrambling flag intact.
    // Unmapped valid pages (pair backups mid-protocol) are left alone.
    bool ok = true;
    if (lsb_valid && lsb_lpn != kNoLpn) {
        const OobTag t = tag_of(lsb);
        const bool lsb_only = t == OobTag::kParabitLsbOnly;
        ok = refreshOnePage(lsb, lsb_lpn,
                            lsb_only ? OobTag::kParabitLsbOnly
                                     : OobTag::kGcRelocated,
                            lsb_only, ops) &&
             ok;
    }
    if (msb_valid && msb_lpn != kNoLpn)
        ok = refreshOnePage(msb, msb_lpn, OobTag::kGcRelocated, false,
                            ops) &&
             ok;
    return ok;
}

bool
Ftl::relocatePage(Lpn lpn, const flash::Payload &data,
                  std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    const LpnTable::Entry *e = table_.find(lpn);
    if (!e)
        return false;
    const bool scrambled = e->scrambled;
    const auto a = place({.tag = OobTag::kGcRelocated,
                          .forGc = true,
                          .scrambled = scrambled,
                          .lpn = lpn,
                          .data = data},
                         ops);
    if (!a) {
        if (!powerLost_)
            logWarn("Ftl::relocatePage: program retries exhausted for LPN " +
                    std::to_string(lpn));
        return false;
    }
    ++refreshWrites_;
    mapLpn(lpn, *a, scrambled);
    maybeCheckpoint(ops);
    return true;
}

void
Ftl::auditInvariants(InvariantReport &r) const
{
    const flash::FlashGeometry &g = cfg_.geometry;

    // ftl.map.bijection: every mapped LPN's page reads back as that LPN
    // (valid, its OOB names the LPN).  The table maps each LPN once, so
    // no page can then back two LPNs.
    table_.forEach([&](Lpn lpn, const LpnTable::Entry &e) {
        const std::string subj = "lpn " + std::to_string(lpn);
        const std::optional<Lpn> owner = ownerOf(e.addr);
        if (!r.check(owner == lpn)) {
            r.fail("ftl.map.bijection", subj,
                   "maps to linear page " +
                       std::to_string(flash::linearPageIndex(g, e.addr)) +
                       ", which reads back as " +
                       (owner ? "lpn " + std::to_string(*owner)
                              : std::string("no lpn")));
            return; // the OOB checks below would only cascade
        }

        // ftl.map.oob: the mapped page's OOB metadata agrees with the
        // table.
        const flash::PageOob *oob =
            blockAt(e.addr)->pageOob(e.addr.wordline, e.addr.msb);
        if (!r.check(oob != nullptr)) {
            r.fail("ftl.map.oob", subj, "OOB metadata missing");
            return;
        }
        if (!r.check(oob->seq < seq_))
            r.fail("ftl.map.oob", subj,
                   "OOB seq " + std::to_string(oob->seq) +
                       " >= next sequence " + std::to_string(seq_));
        if (!r.check(oob->scrambled == e.scrambled))
            r.fail("ftl.map.oob", subj,
                   std::string("OOB scrambled flag ") +
                       (oob->scrambled ? "set" : "clear") +
                       " disagrees with the table");
    });

    // One walk over every materialised block: valid-count accounting
    // and the MLC program-order pairing invariant.
    for (PlaneIndex p = 0; p < g.planesTotal(); ++p) {
        const PlaneCoord c = planeCoord(g, p);
        const flash::Chip &chip =
            (*chips_)[static_cast<std::size_t>(c.channel) *
                          g.chipsPerChannel +
                      c.chip];
        const flash::Plane &pl = chip.plane(c.die, c.plane);
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
            const flash::Block *blk = pl.blockIfExists(b);
            if (!blk)
                continue;
            const std::string subj = "plane " + std::to_string(p) +
                                     " block " + std::to_string(b);
            std::uint32_t valid = 0;
            for (std::uint32_t wl = 0; wl < blk->wordlines(); ++wl) {
                const flash::PageState lsb = blk->pageState(wl, false);
                const flash::PageState msb = blk->pageState(wl, true);
                valid += (lsb == flash::PageState::kValid) +
                         (msb == flash::PageState::kValid);
                // ftl.pair.lsb_msb: an MSB page is only ever programmed
                // over a non-free LSB (interleaved order, writePair,
                // writeIntoFreeMsb all guarantee it).
                if (!r.check(msb == flash::PageState::kFree ||
                             lsb != flash::PageState::kFree))
                    r.fail("ftl.pair.lsb_msb",
                           subj + " wordline " + std::to_string(wl),
                           "MSB page programmed while the LSB page is "
                           "free");
            }
            if (!r.check(valid == blk->validPages()))
                r.fail("ftl.blocks.valid_count", subj,
                       "block counter says " +
                           std::to_string(blk->validPages()) +
                           " valid pages, recount says " +
                           std::to_string(valid));
        }
    }
}

bool
Ftl::debugCorruptMapping(Lpn lpn, std::optional<flash::PhysPageAddr> to)
{
    const LpnTable::Entry *e = table_.find(lpn);
    if (!e)
        return false;
    flash::PhysPageAddr a = e->addr;
    a.wordline = (a.wordline + 1) % cfg_.geometry.wordlinesPerBlock;
    // Flash is untouched: the page there does not read back as lpn (or
    // is not valid), so the bijection audit must fire.
    table_.assign(lpn, to.value_or(a), e->scrambled);
    return true;
}

} // namespace parabit::ssd
