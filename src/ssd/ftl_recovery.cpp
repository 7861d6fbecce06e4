/**
 * @file
 * Crash-consistency half of the FTL: power-cut boundaries, the reserved
 * SLC checkpoint/journal region, and sudden-power-off recovery (OOB
 * scan + sequence-number arbitration).  See DESIGN.md "Crash
 * consistency" for the protocol; ftl.cpp holds the normal data path.
 */

#include "ssd/ftl.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace parabit::ssd {

PowerCut
Ftl::powerBoundary(bool is_program)
{
    if (powerLost_)
        return PowerCut::kBeforeOp;
    if (!injector_)
        return PowerCut::kNone;
    const PowerCut cut = injector_->powerCutOnOp(is_program);
    if (cut != PowerCut::kNone) {
        powerLost_ = true;
        plpFlush();
    }
    return cut;
}

void
Ftl::plpFlush()
{
    // Hold-up capacitors dump the unpaired-LSB buffer to the reserved
    // region on residual energy; the dump is modeled always-durable
    // (that is the PLP hardware contract), unlike journal records which
    // gate on the cut boundary.
    for (auto &[key, e] : plpBuffer_)
        durable_.plpFlush.push_back(std::move(e));
    plpBuffer_.clear();
}

void
Ftl::restorePlpEntries(RecoveryReport &rep, std::vector<PhysOp> &ops)
{
    if (durable_.plpFlush.empty())
        return;
    // Restore from a moved-out copy: a restored LSB with a free MSB
    // re-enters plpBuffer_, and a cut during a later program dumps that
    // buffer into durable_.plpFlush.
    std::vector<PlpEntry> dump = std::exchange(durable_.plpFlush, {});
    // Newest copy of each LPN wins (an LPN rewritten while still
    // buffered leaves a stale entry behind).
    std::sort(dump.begin(), dump.end(),
              [](const PlpEntry &x, const PlpEntry &y) {
                  return x.lpn != y.lpn ? x.lpn < y.lpn : x.seq > y.seq;
              });
    bool first = true;
    Lpn prev = kNoLpn;
    for (PlpEntry &e : dump) {
        if (!first && e.lpn == prev)
            continue;
        first = false;
        prev = e.lpn;
        if (table_.find(e.lpn))
            continue; // the flash copy survived: the dump is redundant
        const auto a = place({.tag = OobTag::kHostData,
                              .scrambled = e.scrambled,
                              .lpn = e.lpn,
                              .data = e.data,
                              // Deliberately unlike the write paths:
                              // restore gives up at the first plane
                              // without space and charges no retries.
                              .countRetries = false,
                              .stopWhenFull = true},
                             ops);
        if (!a) {
            if (powerLost_) // cut mid-restore: the next recovery retries
                durable_.plpFlush.push_back(std::move(e));
            else
                logWarn("Ftl::restorePlpEntries: could not re-place LPN " +
                        std::to_string(e.lpn) + " from the PLP dump");
            continue;
        }
        mapLpn(e.lpn, *a, e.scrambled);
        ++rep.plpRestored;
    }
}

std::uint64_t
Ftl::linearBlockId(flash::PlaneIndex plane, std::uint32_t block) const
{
    return static_cast<std::uint64_t>(plane) * cfg_.geometry.blocksPerPlane +
           block;
}

std::uint32_t
Ftl::halfPages() const
{
    // The log region is written SLC-mode (LSB pages only) so that a
    // torn log program can never corrupt an earlier, committed record
    // through the shared-wordline coupling.
    return alloc_.planeCount() * (cfg_.recovery.reservedBlocksPerPlane / 2) *
           cfg_.geometry.wordlinesPerBlock;
}

flash::PhysPageAddr
Ftl::logAddr(int half, std::uint32_t idx) const
{
    const std::uint32_t r = cfg_.recovery.reservedBlocksPerPlane;
    const std::uint32_t blocks_per_half = r / 2;
    const std::uint32_t pages_per_plane =
        blocks_per_half * cfg_.geometry.wordlinesPerBlock;
    const flash::PlaneIndex p = idx / pages_per_plane;
    const std::uint32_t rem = idx % pages_per_plane;
    return planeAddr(cfg_.geometry, p,
                     cfg_.geometry.blocksPerPlane - r +
                         static_cast<std::uint32_t>(half) * blocks_per_half +
                         rem / cfg_.geometry.wordlinesPerBlock,
                     rem % cfg_.geometry.wordlinesPerBlock);
}

bool
Ftl::eraseHalf(int half, std::vector<PhysOp> &ops)
{
    const std::uint32_t r = cfg_.recovery.reservedBlocksPerPlane;
    const std::uint32_t blocks_per_half = r / 2;
    for (flash::PlaneIndex p = 0; p < alloc_.planeCount(); ++p) {
        for (std::uint32_t i = 0; i < blocks_per_half; ++i) {
            const std::uint32_t b = cfg_.geometry.blocksPerPlane - r +
                                    static_cast<std::uint32_t>(half) *
                                        blocks_per_half +
                                    i;
            const flash::PhysPageAddr a = planeAddr(cfg_.geometry, p, b);
            flash::Chip &chip = chipAt(a);
            const flash::Block *blk =
                chip.plane(a.die, a.plane).blockIfExists(b);
            if (!blk || blk->freePages() == cfg_.geometry.pagesPerBlock())
                continue; // nothing programmed: nothing to erase
            if (powerBoundary(false) != PowerCut::kNone)
                return false;
            ops.push_back(PhysOp{PhysOp::Kind::kBlockErase, a});
            if (chip.eraseBlock(a))
                ++logErases_;
            else
                logWarn("Ftl::eraseHalf: erase failure in the reserved "
                        "region; pages will be skipped");
        }
    }
    return true;
}

bool
Ftl::logProgram(std::vector<PhysOp> &ops, bool allow_rotate)
{
    const std::uint32_t cap = halfPages();
    for (std::uint32_t guard = 0; guard <= cap + 1; ++guard) {
        if (logHead_ >= cap) {
            if (!allow_rotate) {
                // Checkpoint image exceeds the reserved region;
                // modelled truncated (warned by the caller).
                return !powerLost_;
            }
            // Journal half full: rotate via a fresh checkpoint, which
            // erases the other half and restarts logHead_ there.
            if (!checkpoint(ops))
                return false;
            continue;
        }
        const flash::PhysPageAddr a = logAddr(logHalf_, logHead_++);
        if (powerBoundary(true) != PowerCut::kNone)
            return false; // the record never became durable
        ops.push_back(PhysOp{PhysOp::Kind::kPageProgram, a});
        if (chipAt(a).pageState(a) != flash::PageState::kFree)
            continue; // residue of a failed erase: skip the page
        const flash::PageOob oob{kNoLpn, seq_++,
                                 static_cast<std::uint8_t>(OobTag::kLog),
                                 false};
        if (!chipAt(a).programPage(a, nullptr, &oob))
            continue; // injected program failure: skip the bad page
        return true;
    }
    logWarn("Ftl::logProgram: reserved log region unusable");
    return false;
}

bool
Ftl::journalAppend(JournalRecord r, std::vector<PhysOp> &ops)
{
    if (!recoveryEnabled())
        return true;
    if (powerLost_)
        return false;
    r.seq = seq_++;
    if (!logProgram(ops))
        return false;
    durable_.records.push_back(r);
    ++journalWrites_;
    return true;
}

bool
Ftl::checkpoint(std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    if (!recoveryEnabled() || powerLost_ || inCheckpoint_)
        return false;
    inCheckpoint_ = true;

    CheckpointImage img;
    img.seq = seq_;
    // A snapshot: the table's chunk directory, sharing every chunk.
    img.map = table_;
    for (flash::PlaneIndex p = 0; p < alloc_.planeCount(); ++p) {
        for (std::uint32_t b : alloc_.poolBlocks(p))
            img.scanBlocks.push_back(linearBlockId(p, b));
        for (std::uint32_t b = 0; b < cfg_.geometry.blocksPerPlane; ++b) {
            if (alloc_.isActiveBlock(p, b))
                img.scanBlocks.push_back(linearBlockId(p, b));
            if (alloc_.isRetired(p, b))
                img.retired.push_back(linearBlockId(p, b));
        }
    }
    std::sort(img.scanBlocks.begin(), img.scanBlocks.end());

    // Serialized size -> log pages: 32 B header + 17 B per map entry
    // (lpn, linear index, flags) + 8 B per block id.
    const std::uint64_t bytes =
        32 + 17ull * img.map.size() +
        8ull * (img.scanBlocks.size() + img.retired.size());
    const std::uint64_t page_bytes = cfg_.geometry.pageBytes;
    img.pages = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, (bytes + page_bytes - 1) / page_bytes));
    if (img.pages + 1 > halfPages())
        logWarn("Ftl::checkpoint: image exceeds half the reserved region; "
                "modelling it truncated");

    // Write into the half NOT holding the committed generation: if the
    // cut strikes before the commit page below, the previous checkpoint
    // plus its journal tail remain the durable truth.
    const int prev_half = logHalf_;
    const std::uint32_t prev_head = logHead_;
    logHalf_ = 1 - prev_half;
    logHead_ = 0;
    bool ok = eraseHalf(logHalf_, ops);
    const std::uint32_t to_write = std::min(img.pages + 1, halfPages());
    for (std::uint32_t i = 0; ok && i < to_write; ++i)
        ok = logProgram(ops, /*allow_rotate=*/false);
    if (!ok) {
        logHalf_ = prev_half;
        logHead_ = prev_head;
        inCheckpoint_ = false;
        return false;
    }
    // The last page above is the commit record: the new generation is
    // durable, the journal continues behind it in the same half.
    durable_.checkpoint = std::move(img);
    durable_.records.clear();
    programsSinceCkpt_ = 0;
    ++checkpoints_;
    inCheckpoint_ = false;
    return true;
}

void
Ftl::maybeCheckpoint(std::vector<PhysOp> &ops)
{
    if (!recoveryEnabled() || powerLost_ || inGc_ || inCheckpoint_)
        return;
    const std::uint32_t interval = cfg_.recovery.checkpointIntervalPrograms;
    if (interval == 0 || programsSinceCkpt_ < interval)
        return;
    checkpoint(ops);
}

RecoveryReport
Ftl::recover(std::vector<PhysOp> &ops)
{
    RecoveryReport rep;
    rep.recovered = true;
    table_.clear();
    inGc_ = false;
    inCheckpoint_ = false;

    const std::uint32_t reserved = cfg_.recovery.reservedBlocksPerPlane;
    const std::uint32_t data_blocks =
        cfg_.geometry.blocksPerPlane - reserved;

    // One mapping candidate per (source, lpn); highest sequence wins.
    struct Cand
    {
        std::uint64_t seq = 0;
        bool isTrim = false;
        std::uint64_t phys = 0;
        bool scrambled = false;
        bool fromOob = false;
    };
    std::unordered_map<Lpn, std::vector<Cand>> cands;
    std::uint64_t max_seq = 0;

    // Phase 1: checkpoint load + journal replay bound the scan set.
    const bool use_ckpt = durable_.checkpoint.has_value();
    rep.usedCheckpoint = use_ckpt;
    std::unordered_set<std::uint64_t> scan_set;
    if (use_ckpt) {
        const CheckpointImage &img = *durable_.checkpoint;
        max_seq = std::max(max_seq, img.seq);
        rep.checkpointPagesRead = img.pages + 1;
        img.map.forEach([&](Lpn lpn, const LpnTable::Entry &e) {
            cands[lpn].push_back(
                Cand{img.seq, false,
                     flash::linearPageIndex(cfg_.geometry, e.addr()),
                     e.scrambled, false});
        });
        scan_set.insert(img.scanBlocks.begin(), img.scanBlocks.end());
        scan_set.insert(img.retired.begin(), img.retired.end());
        for (const JournalRecord &r : durable_.records) {
            ++rep.journalRecords;
            max_seq = std::max(max_seq, r.seq);
            switch (r.kind) {
              case JournalRecord::Kind::kTrim:
                cands[r.lpn].push_back(Cand{r.seq, true, 0, false, false});
                break;
              case JournalRecord::Kind::kRemap:
                cands[r.lpn].push_back(
                    Cand{r.seq, false, r.value, false, false});
                break;
              case JournalRecord::Kind::kErase:
                scan_set.insert(r.value);
                break;
              case JournalRecord::Kind::kRetire:
                scan_set.insert(r.value);
                alloc_.retireBlock(
                    static_cast<flash::PlaneIndex>(r.value /
                                            cfg_.geometry.blocksPerPlane),
                    static_cast<std::uint32_t>(r.value %
                                               cfg_.geometry.blocksPerPlane));
                break;
            }
        }
        // Book the checkpoint + journal replay reads from the log half.
        const std::uint64_t log_reads =
            std::min<std::uint64_t>(rep.checkpointPagesRead +
                                        rep.journalRecords,
                                    halfPages());
        for (std::uint64_t i = 0; i < log_reads; ++i)
            ops.push_back(PhysOp{
                PhysOp::Kind::kPageRead,
                logAddr(logHalf_, static_cast<std::uint32_t>(i))});
    } else {
        for (flash::PlaneIndex p = 0; p < alloc_.planeCount(); ++p)
            for (std::uint32_t b = 0; b < data_blocks; ++b)
                scan_set.insert(linearBlockId(p, b));
    }

    // Phase 2: OOB scan of the (bounded) block set.
    std::vector<std::uint64_t> scan_list(scan_set.begin(), scan_set.end());
    std::sort(scan_list.begin(), scan_list.end());
    for (std::uint64_t id : scan_list) {
        const flash::PlaneIndex p =
            static_cast<flash::PlaneIndex>(id / cfg_.geometry.blocksPerPlane);
        const std::uint32_t b =
            static_cast<std::uint32_t>(id % cfg_.geometry.blocksPerPlane);
        if (b >= data_blocks)
            continue; // never scan the log region for data
        const flash::PhysPageAddr probe = planeAddr(cfg_.geometry, p, b);
        const flash::Block *blk =
            chipAt(probe).plane(probe.die, probe.plane).blockIfExists(b);
        if (!blk)
            continue;
        ++rep.blocksScanned;
        for (std::uint32_t wl = 0; wl < cfg_.geometry.wordlinesPerBlock;
             ++wl) {
            const bool torn = blk->torn(wl);
            if (torn)
                ++rep.tornWordlines;
            for (int m = 0; m < 2; ++m) {
                const bool msb = m == 1;
                if (blk->pageState(wl, msb) == flash::PageState::kFree)
                    continue;
                ++rep.pagesScanned;
                flash::PhysPageAddr a = probe;
                a.wordline = wl;
                a.msb = msb;
                ops.push_back(PhysOp{PhysOp::Kind::kPageRead, a});
                if (torn || blk->pageState(wl, msb) != flash::PageState::kValid)
                    continue;
                const std::optional<flash::PageOob> oob =
                    blk->pageOob(wl, msb);
                if (!oob || oob->lpn == kNoLpn ||
                    oob->tag == static_cast<std::uint8_t>(OobTag::kLog))
                    continue;
                ++rep.oobCandidates;
                max_seq = std::max(max_seq, oob->seq);
                cands[oob->lpn].push_back(
                    Cand{oob->seq, false,
                         flash::linearPageIndex(cfg_.geometry, a),
                         oob->scrambled, true});
            }
        }
    }

    // Phase 3: arbitration — newest durable statement about each LPN
    // wins; physical candidates must still check out on flash (valid,
    // untorn, OOB agrees), else the next-newest is consulted.
    std::vector<Lpn> lpns;
    lpns.reserve(cands.size());
    for (const auto &[lpn, list] : cands)
        lpns.push_back(lpn);
    std::sort(lpns.begin(), lpns.end());
    for (Lpn lpn : lpns) {
        std::vector<Cand> &list = cands[lpn];
        std::sort(list.begin(), list.end(),
                  [](const Cand &x, const Cand &y) {
                      if (x.seq != y.seq)
                          return x.seq > y.seq;
                      if (x.isTrim != y.isTrim)
                          return x.isTrim;
                      return x.phys > y.phys;
                  });
        for (const Cand &cand : list) {
            if (cand.isTrim)
                break; // newest statement: the LPN is unmapped
            const flash::PhysPageAddr a =
                flash::pageFromLinear(cfg_.geometry, cand.phys);
            if (a.block >= data_blocks)
                continue;
            flash::Chip &chip = chipAt(a);
            const flash::Block *blk =
                chip.plane(a.die, a.plane).blockIfExists(a.block);
            if (!blk || blk->torn(a.wordline) ||
                blk->pageState(a.wordline, a.msb) != flash::PageState::kValid)
                continue;
            const std::optional<flash::PageOob> oob =
                blk->pageOob(a.wordline, a.msb);
            if (!oob || oob->lpn != lpn)
                continue;
            table_.assign(lpn, a, oob->scrambled);
            break;
        }
    }
    rep.mappingsRebuilt = table_.size();

    // Phase 4: valid pages that lost arbitration (stale copies, torn
    // survivors, released backups) are marked invalid so GC reclaims
    // them and they can never resurface.
    for (std::uint64_t id : scan_list) {
        const flash::PlaneIndex p =
            static_cast<flash::PlaneIndex>(id / cfg_.geometry.blocksPerPlane);
        const std::uint32_t b =
            static_cast<std::uint32_t>(id % cfg_.geometry.blocksPerPlane);
        if (b >= data_blocks)
            continue;
        const flash::PhysPageAddr probe = planeAddr(cfg_.geometry, p, b);
        flash::Plane &pl = chipAt(probe).plane(probe.die, probe.plane);
        flash::Block *blk = pl.blockIfExists(b) ? &pl.block(b) : nullptr;
        if (!blk)
            continue;
        for (std::uint32_t wl = 0; wl < cfg_.geometry.wordlinesPerBlock;
             ++wl) {
            for (int m = 0; m < 2; ++m) {
                const bool msb = m == 1;
                if (blk->pageState(wl, msb) != flash::PageState::kValid)
                    continue;
                flash::PhysPageAddr a = probe;
                a.wordline = wl;
                a.msb = msb;
                if (ownerOf(a))
                    continue; // arbitration winner: stays valid
                blk->invalidate(wl, msb);
                ++rep.staleInvalidated;
            }
        }
    }

    seq_ = max_seq + 1;
    programsSinceCkpt_ = 0;
    rep.nextSeq = seq_;
    return rep;
}

void
Ftl::rebuildAllocator()
{
    const std::uint32_t reserved =
        cfg_.recovery.enabled ? cfg_.recovery.reservedBlocksPerPlane : 0;
    const std::uint32_t data_blocks =
        cfg_.geometry.blocksPerPlane - reserved;
    for (flash::PlaneIndex p = 0; p < alloc_.planeCount(); ++p) {
        const flash::PhysPageAddr probe = planeAddr(cfg_.geometry, p);
        const flash::Plane &pl = chipAt(probe).plane(probe.die, probe.plane);
        std::vector<std::uint32_t> free;
        for (std::uint32_t b = 0; b < data_blocks; ++b) {
            const flash::Block *blk = pl.blockIfExists(b);
            // Only fully-free blocks are pooled; partially written ones
            // are left to GC (their write points are not trustworthy
            // after a crash).
            if (!blk || blk->freePages() == cfg_.geometry.pagesPerBlock())
                free.push_back(b);
        }
        alloc_.rebuild(p, free);
    }
}

RecoveryReport
Ftl::powerCycle(std::vector<PhysOp> &ops)
{
    PROFILE_SCOPE(obs::Subsystem::kFtl);
    // A clean restart (no prior cut) still loses controller RAM: dump
    // the unpaired-LSB buffer as if the plug had been pulled now.
    if (recoveryEnabled() && !powerLost_)
        plpFlush();
    powerLost_ = false;
    if (!recoveryEnabled()) {
        // No SPOR subsystem: the volatile mapping is simply gone.  The
        // device stays usable for new writes (motivating test case).
        table_.clear();
        inGc_ = false;
        rebuildAllocator();
        RecoveryReport rep;
        rep.nextSeq = seq_;
        return rep;
    }
    RecoveryReport rep = recover(ops);
    rebuildAllocator();
    restorePlpEntries(rep, ops);
    // Re-establish a bounded-scan baseline for the next cut.
    checkpoint(ops);
    rep.nextSeq = seq_;
    return rep;
}

} // namespace parabit::ssd
