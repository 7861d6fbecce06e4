#include "ssd/media.hpp"

#include <algorithm>

#include "ssd/health.hpp"

namespace parabit::ssd {

MediaScrubber::MediaScrubber(const SsdConfig &cfg, Ftl &ftl,
                             std::vector<flash::Chip> &chips,
                             RainController *rain)
    : cfg_(cfg), ftl_(&ftl), chips_(&chips), rain_(rain)
{
}

ScrubPassStats
MediaScrubber::pump(Tick now, std::vector<PhysOp> &ops)
{
    ScrubPassStats s;
    if (ftl_->powerLost() || now < nextPassAt_)
        return s;
    s.ran = true;
    ++passes_;
    // Degraded throttle: a distressed device shrinks its patrol batch
    // so foreground I/O is not competing with a full-rate scrub.
    std::uint32_t batch = cfg_.media.scrubWordlinesPerPass;
    if (health_ && health_->backgroundThrottled())
        batch = std::max<std::uint32_t>(
            1, batch / cfg_.health.degradedScrubDivisor);
    for (std::uint32_t n = 0; n < batch; ++n) {
        scanOne(s, ops);
        advanceCursor();
        if (ftl_->powerLost())
            break; // a power cut mid-pass ends the patrol
    }
    nextPassAt_ = now + cfg_.media.scrubInterval;
    return s;
}

void
MediaScrubber::scanOne(ScrubPassStats &s, std::vector<PhysOp> &ops)
{
    const flash::FlashGeometry &g = cfg_.geometry;
    // Reserved (SPOR log) and open (write-cursor) blocks are not
    // patrolled: the log region has its own lifecycle and open blocks
    // are still being filled by the FTL's cursors.
    if (ftl_->allocator().isReserved(plane_, block_) ||
        ftl_->allocator().isActiveBlock(plane_, block_))
        return;
    const PlaneCoord c = planeCoord(g, plane_);
    flash::Chip &chip =
        (*chips_)[static_cast<std::size_t>(c.channel) * g.chipsPerChannel +
                  c.chip];
    const flash::Block *blk = chip.plane(c.die, c.plane).blockIfExists(block_);
    if (!blk)
        return; // never-programmed block: nothing to patrol
    ++s.wordlinesScanned;
    ++scanned_;

    flash::PhysPageAddr a = planeAddr(g, plane_, block_, wl_);

    if (!chip.planeOperational(c.die, c.plane)) {
        repairWordline(a, s, ops);
        return;
    }

    // One patrol scan sense per valid page.  The functional read
    // charges neighbor disturb exactly like a host read (patrol is not
    // free); the booked kScrubRead runs in the background class.
    bool any_valid = false;
    for (const bool msb : {false, true}) {
        const flash::ChipPageAddr ca{c.die, c.plane, block_, wl_, msb};
        if (chip.pageState(ca) != flash::PageState::kValid)
            continue;
        any_valid = true;
        (void)chip.readPage(ca);
        a.msb = msb;
        ops.push_back(PhysOp{PhysOp::Kind::kScrubRead, a, true});
        ++s.scrubReads;
        ++reads_;
    }
    if (!any_valid)
        return;

    const flash::ChipPageAddr ca{c.die, c.plane, block_, wl_, false};
    const double rber = chip.predictedRber(ca);
    const std::uint64_t disturb = chip.wordlineDisturb(ca);
    const bool over_rber = rber >= cfg_.media.refreshRberThreshold;
    const bool over_disturb = cfg_.media.refreshDisturbThreshold > 0 &&
                              disturb >= cfg_.media.refreshDisturbThreshold;
    if (!over_rber && !over_disturb)
        return;
    a.msb = false;
    if (ftl_->refreshWordline(a, ops)) {
        ++s.refreshes;
        ++refreshes_;
        if (health_)
            health_->noteRefresh();
    } else {
        ++s.refreshFailures;
        ++refreshFails_;
    }
}

void
MediaScrubber::repairWordline(flash::PhysPageAddr a, ScrubPassStats &s,
                              std::vector<PhysOp> &ops)
{
    for (const bool msb : {false, true}) {
        a.msb = msb;
        const Lpn lpn = ftl_->lpnAt(a);
        if (lpn == kNoLpn)
            continue; // unmapped: nothing the host can lose
        std::optional<BitVector> data;
        if (rain_)
            data = rain_->rebuildPage(a);
        if (!data && cfg_.storeData) {
            // No parity (or a second stripe member is gone too):
            // genuine data loss, counted but left mapped so reads
            // fail loudly rather than silently serving garbage.
            ++s.uncorrectable;
            ++uncorrectable_;
            if (health_)
                health_->noteUncorrectable();
            continue;
        }
        if (ftl_->relocatePage(
                lpn, data ? flash::makePayload(std::move(*data)) : nullptr,
                ops)) {
            ++s.repairs;
            ++repairs_;
            if (health_)
                health_->noteRebuild();
        } else {
            ++s.uncorrectable;
            ++uncorrectable_;
            if (health_)
                health_->noteUncorrectable();
        }
    }
}

void
MediaScrubber::advanceCursor()
{
    const flash::FlashGeometry &g = cfg_.geometry;
    if (++wl_ < g.wordlinesPerBlock)
        return;
    wl_ = 0;
    if (++block_ < g.blocksPerPlane)
        return;
    block_ = 0;
    if (++plane_ >= g.planesTotal())
        plane_ = 0;
}

} // namespace parabit::ssd
