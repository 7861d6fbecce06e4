#include "ssd/ssd.hpp"

#include <algorithm>
#include <string>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace parabit::ssd {

SsdDevice::SsdDevice(const SsdConfig &cfg)
    : cfg_(cfg),
      pageXferTicks_(cfg.timing.transferTime(cfg.geometry.pageBytes)),
      chips_([&] {
          std::vector<flash::Chip> v;
          const std::uint32_t n = cfg.geometry.chips();
          v.reserve(n);
          for (std::uint32_t i = 0; i < n; ++i)
              v.emplace_back(cfg.geometry, cfg.storeData, cfg.errors,
                             cfg.seed + i);
          return v;
      }()),
      ftl_(cfg, chips_),
      sched_(cfg.geometry, cfg.timing, cfg.sched)
{
    // Benches enable the global sink before constructing the device;
    // every scheduler booking then lands on per-channel/per-die tracks.
    if (obs::TraceSink *sink = obs::TraceSink::global())
        sched_.setTraceSink(sink);
    if (const char *err = validateMediaConfig(cfg_))
        fatal(std::string("SsdDevice: ") + err);
    if (const char *err = validateHealthConfig(cfg_))
        fatal(std::string("SsdDevice: ") + err);
    if (cfg_.rain.enabled)
        rain_ = std::make_unique<RainController>(cfg_, chips_);
    ftl_.setRain(rain_.get());
    if (cfg_.media.enabled)
        media_ = std::make_unique<MediaScrubber>(cfg_, ftl_, chips_,
                                                 rain_.get());
    if (cfg_.health.enabled) {
        health_ = std::make_unique<DeviceHealth>(cfg_.health);
        ftl_.setHealth(health_.get());
        if (rain_)
            rain_->setHealth(health_.get());
        if (media_)
            media_->setHealth(health_.get());
    }
    registerInvariantSuites();
}

void
SsdDevice::registerInvariantSuites()
{
    invariants_.registerSuite(
        "ftl", [this](InvariantReport &r) { ftl_.auditInvariants(r); });
    invariants_.registerSuite(
        "sched", [this](InvariantReport &r) { sched_.auditInvariants(r); });
    if (rain_)
        invariants_.registerSuite(
            "rain", [this](InvariantReport &r) { rain_->auditParity(r); });
    invariants_.registerSuite(
        "media", [this](InvariantReport &r) { auditMedia(r); });
    if (health_)
        invariants_.registerSuite("health", [this](InvariantReport &r) {
            health_->auditInvariants(r);
        });
}

void
SsdDevice::auditMedia(InvariantReport &r)
{
    const flash::FlashGeometry &g = cfg_.geometry;
    for (flash::PlaneIndex p = 0; p < g.planesTotal(); ++p) {
        const flash::PhysPageAddr at = planeAddr(g, p);
        const flash::Chip &chip = chips_[chipIndex(g, at)];
        const Tick now = chip.now();
        const flash::Plane &plane = chip.plane(at.die, at.plane);
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
            const flash::Block *blk = plane.blockIfExists(b);
            if (!blk)
                continue;
            const std::uint64_t key =
                static_cast<std::uint64_t>(p) * g.blocksPerPlane + b;
            WearSnapshot &seen = wearSeen_[key];
            const bool erased = blk->eraseCount() > seen.erases;
            if (!r.check(blk->eraseCount() >= seen.erases))
                r.fail("media.wear.monotonic",
                       "block " + std::to_string(key),
                       "erase count went backwards: " +
                           std::to_string(blk->eraseCount()) +
                           " after " + std::to_string(seen.erases));
            seen.erases = blk->eraseCount();
            seen.disturb.resize(g.wordlinesPerBlock, 0);
            for (std::uint32_t wl = 0; wl < g.wordlinesPerBlock; ++wl) {
                const Tick programmed = blk->programTick(wl);
                if (!r.check(programmed <= now))
                    r.fail("media.clock.monotonic",
                           "block " + std::to_string(key) +
                               " wordline " + std::to_string(wl),
                           "programmed at tick " +
                               std::to_string(programmed) +
                               ", after the chip clock " +
                               std::to_string(now));
                const std::uint64_t d = blk->disturbCount(wl);
                // erase() legitimately resets disturb charge;
                // otherwise it only ever accumulates.
                if (!r.check(erased || d >= seen.disturb[wl]))
                    r.fail("media.wear.monotonic",
                           "block " + std::to_string(key) +
                               " wordline " + std::to_string(wl),
                           "disturb charge shrank without an "
                           "erase: " +
                               std::to_string(d) + " after " +
                               std::to_string(seen.disturb[wl]));
                seen.disturb[wl] = d;
            }
        }
    }
    if (media_)
        media_->auditInvariants(r);
}

InvariantReport
SsdDevice::auditInvariants()
{
    InvariantReport r;
    // Between a mid-program cut and powerCycle() the device is
    // legitimately inconsistent (torn wordlines, stale parity); audits
    // resume after recovery.
    if (ftl_.powerLost())
        return r;
    invariants_.runAll(r);
    ++auditRuns_;
    auditChecks_ += r.checksRun;
    if (!r.ok()) {
        auditViolations_ += r.violations.size();
        logError("invariant audit failed:\n" + r.describe());
    }
    return r;
}

void
SsdDevice::maybeAudit()
{
    if (++drainCount_ < cfg_.invariants.auditInterval)
        return;
    drainCount_ = 0;
    const InvariantReport r = auditInvariants();
    if (!r.ok() && cfg_.invariants.fatalOnViolation)
        panic("invariant audit failed (" +
              std::to_string(r.violations.size()) + " violation(s)); see "
              "the log for [id] subject: detail lines");
}

Tick
SsdDevice::drainTransactions()
{
    const Tick done = sched_.drain();
    if (health_) {
        // The drain is the single choke point every timed batch passes
        // through: sync the power state and move the health clock here
        // so pressure decays with simulated time, not call counts.
        health_->setPowerLost(ftl_.powerLost());
        health_->pump(done);
    }
    if (cfg_.invariants.auditInterval != 0)
        maybeAudit();
    return done;
}

void
SsdDevice::advanceClock(Tick now)
{
    for (flash::Chip &c : chips_)
        c.setNow(now);
}

Tick
SsdDevice::pumpMedia(Tick now)
{
    if (!media_)
        return now;
    advanceClock(now);
    std::vector<PhysOp> ops;
    const ScrubPassStats s = media_->pump(now, ops);
    if (!s.ran)
        return now;
    const Tick done = ops.empty() ? now : scheduleOps(ops, now);
    if (obs::TraceSink *sink = obs::TraceSink::global()) {
        const Tick s0 = std::max(now, mediaSpanEnd_);
        const Tick s1 = std::max(done, s0);
        mediaSpanEnd_ = s1;
        sink->span(sink->track("device", "media"), "scrub_pass", s0, s1,
                   {{"wordlines", std::to_string(s.wordlinesScanned), false},
                    {"scrub_reads", std::to_string(s.scrubReads), false},
                    {"refreshes", std::to_string(s.refreshes), false},
                    {"refresh_failures", std::to_string(s.refreshFailures),
                     false},
                    {"repairs", std::to_string(s.repairs), false},
                    {"uncorrectable", std::to_string(s.uncorrectable),
                     false}});
    }
    return done;
}

bool
SsdDevice::repairPage(Lpn lpn, Tick at)
{
    const auto loc = ftl_.lookup(lpn);
    if (!loc)
        return false;
    if (planeAlive(*loc))
        return true; // readable already, nothing to rebuild
    if (!rain_)
        return false;
    std::optional<BitVector> data = rain_->rebuildPage(*loc);
    if (!data && cfg_.storeData)
        return false;
    std::vector<PhysOp> ops;
    if (!ftl_.relocatePage(
            lpn, data ? flash::makePayload(std::move(*data)) : nullptr, ops))
        return false;
    if (health_ && data)
        health_->noteRebuild();
    const Tick done = scheduleOps(ops, at);
    if (obs::TraceSink *sink = obs::TraceSink::global()) {
        const Tick s0 = std::max(at, mediaSpanEnd_);
        const Tick s1 = std::max(done, s0);
        mediaSpanEnd_ = s1;
        sink->span(sink->track("device", "media"), "rain_rebuild", s0, s1,
                   {{"lpn", std::to_string(lpn), false}});
    }
    return true;
}

FaultInjector &
SsdDevice::faultInjector()
{
    if (!injector_) {
        injector_ = std::make_unique<FaultInjector>(
            cfg_.geometry, cfg_.seed ^ 0xFA017EC7ull);
        installFaultHooks();
        ftl_.setFaultInjector(injector_.get());
    }
    return *injector_;
}

RecoveryReport
SsdDevice::powerCycle(Tick at)
{
    if (injector_)
        injector_->clearPowerLoss();
    advanceClock(at);
    std::vector<PhysOp> ops;
    RecoveryReport rep = ftl_.powerCycle(ops);
    // The stripe buffer is volatile controller RAM: rebuild parity from
    // flash before any post-recovery read can ask for a rebuild — and
    // before scheduling the recovery ops, whose drain may run a cadence
    // audit that would otherwise see the stale pre-cut buffer.
    if (rain_)
        rain_->recomputeAll();
    rep.scanTime = scheduleOps(ops, at) - at;
    ++powerCycles_;
    pagesScannedTotal_ += rep.pagesScanned;
    journalReplayedTotal_ += rep.journalRecords;
    mappingsRebuiltTotal_ += rep.mappingsRebuilt;
    if (obs::TraceSink *sink = obs::TraceSink::global()) {
        sink->span(sink->track("device", "recovery"), "power_cycle", at,
                   at + rep.scanTime,
                   {{"pages_scanned", std::to_string(rep.pagesScanned),
                     false},
                    {"journal_records", std::to_string(rep.journalRecords),
                     false},
                    {"mappings_rebuilt", std::to_string(rep.mappingsRebuilt),
                     false}});
    }
    return rep;
}

void
SsdDevice::installFaultHooks()
{
    // Chips hand their hooks the device-wide address of the operation,
    // which is exactly what the injector's schedule matches against.
    FaultInjector *inj = injector_.get();
    flash::ChipFaultHooks hooks;
    hooks.rberMultiplier = [inj](const flash::PhysPageAddr &a) {
        return inj->rberMultiplier(a);
    };
    hooks.programFails = [inj](const flash::PhysPageAddr &a) {
        return inj->programShouldFail(a);
    };
    hooks.eraseFails = [inj](const flash::PhysPageAddr &a) {
        return inj->eraseShouldFail(a);
    };
    hooks.disturbMultiplier = [inj](const flash::PhysPageAddr &a) {
        return inj->disturbMultiplier(a);
    };
    hooks.retentionMultiplier = [inj](const flash::PhysPageAddr &a) {
        return inj->retentionMultiplier(a);
    };
    for (flash::Chip &chip : chips_)
        chip.setFaultHooks(hooks);
}

void
SsdDevice::applyPlaneFaults()
{
    for (flash::PlaneIndex p = 0; p < cfg_.geometry.planesTotal(); ++p) {
        const flash::PlaneCoord c = planeCoord(cfg_.geometry, p);
        flash::Plane &pl = chipAt(c.channel, c.chip).plane(c.die, c.plane);
        pl.setDead(injector_->planeDead(p));
        pl.setStuckBitlines(injector_->stuckBitlines(p));
    }
}

void
SsdDevice::injectFault(const FaultSpec &spec)
{
    faultInjector().addFault(spec);
    applyPlaneFaults();
}

std::size_t
SsdDevice::clearTransientFaults()
{
    if (!injector_)
        return 0;
    const std::size_t removed = injector_->clearTransient();
    // The thinned schedule shrinks stuck-bitline sets; permanent dead
    // flags re-assert.
    applyPlaneFaults();
    return removed;
}

Tick
SsdDevice::xferTicks(Bytes n) const
{
    // A page (a read's, a program's, most senses' result) is the
    // common case; its ticks were computed once.
    if (n == cfg_.geometry.pageBytes)
        return pageXferTicks_;
    return n > 0 ? cfg_.timing.transferTime(n) : 0;
}

// Inline: both of submitOps' booking loops inline it, so the closed
// form reads each op's fields straight into the booking.
inline sched::DeviceTransaction
SsdDevice::toTransaction(const PhysOp &op, Tick ready_at) const
{
    const flash::FlashTiming &t = cfg_.timing;
    sched::DeviceTransaction tx;
    tx.addr = op.addr;
    tx.readyAt = ready_at;
    tx.cmdTicks = t.tCmdOverhead;
    switch (op.kind) {
      case PhysOp::Kind::kPageRead:
        // GC relocation reads map to the read class too: to the die a
        // read is a read, whoever issued it.
        tx.cls = sched::TxClass::kRead;
        tx.arrayTicks = op.addr.msb ? t.msbReadTime() : t.lsbReadTime();
        tx.xferOutTicks = pageXferTicks_;
        break;
      case PhysOp::Kind::kPageProgram:
        tx.cls = sched::TxClass::kProgram;
        tx.xferInTicks = pageXferTicks_;
        tx.arrayTicks = t.tProgram;
        break;
      case PhysOp::Kind::kBlockErase:
        tx.cls = sched::TxClass::kErase;
        tx.arrayTicks = t.tErase;
        break;
      case PhysOp::Kind::kScrubRead:
        // Patrol scan: same array sensing as a read, but the page stays
        // in the die (the on-die comparator checks it), so no channel
        // transfer out — and the background class for arbitration.
        tx.cls = sched::TxClass::kScrub;
        tx.arrayTicks = op.addr.msb ? t.msbReadTime() : t.lsbReadTime();
        break;
      case PhysOp::Kind::kParaBitSense:
        tx.cls = sched::TxClass::kParaBit;
        tx.xferInTicks = xferTicks(op.xferInBytes);
        tx.arrayTicks = t.senseTime(static_cast<int>(op.senseCount));
        tx.xferOutTicks = xferTicks(op.xferOutBytes);
        break;
    }
    return tx;
}

sched::TxGroup
SsdDevice::submitOps(std::span<const PhysOp> ops, Tick ready_at)
{
    return sched_.submitEach(ops.size(), [&](std::size_t i) {
        return toTransaction(ops[i], ready_at);
    });
}

Tick
SsdDevice::scheduleOps(std::span<const PhysOp> ops, Tick ready_at)
{
    const sched::TxGroup g = submitOps(ops, ready_at);
    drainTransactions();
    return sched_.groupCompletion(g, ready_at);
}

template <class PageFn>
bool
SsdDevice::timedBatch(std::size_t pages, std::size_t ops_per_page, Tick &now,
                      PageFn &&page)
{
    advanceClock(now);
    // Local, so a large placement's list is freed with the call.
    std::vector<PhysOp> ops;
    ops.reserve(pages * ops_per_page);
    bool ok = true;
    for (std::size_t i = 0; i < pages; ++i)
        ok = page(i, ops) && ok;
    now = scheduleOps(ops, now);
    pumpMedia(now);
    return ok;
}

bool
SsdDevice::place(const Placement &p, Tick &now)
{
    if ((!p.data.empty() && p.data.size() != p.pages) ||
        (!p.pairData.empty() && p.pairData.size() != p.pages))
        fatal("SsdDevice::place: payload and page counts differ");
    // writePage copies (or whitens) the host's page into a payload itself.
    const auto payload = [](std::span<const BitVector> d, std::size_t i) {
        return d.empty() ? flash::Payload() : flash::makePayload(d[i]);
    };
    const auto page = [&](std::size_t i, std::vector<PhysOp> &ops) {
        switch (p.shape) {
          case PageShape::kPage:
            return ftl_.writePage(
                p.start + i, p.data.empty() ? nullptr : &p.data[i], ops);
          case PageShape::kLsbOnly:
            return ftl_.writeLsbOnly(p.start + i, payload(p.data, i), ops,
                                     p.plane).has_value();
          case PageShape::kPair:
            return ftl_.writePair(p.start + i, p.pairStart + i,
                                  payload(p.data, i), payload(p.pairData, i),
                                  ops, p.plane).has_value();
        }
        return false;
    };
    return timedBatch(p.pages, p.shape == PageShape::kPair ? 2 : 1, now, page);
}

bool
SsdDevice::writePages(Lpn start, const std::vector<const BitVector *> &data,
                      Tick &now)
{
    return timedBatch(data.size(), 1, now,
                      [&](std::size_t i, std::vector<PhysOp> &ops) {
                          return ftl_.writePage(start + i, data[i], ops);
                      });
}

Tick
SsdDevice::readPages(Lpn start, std::size_t count, std::vector<BitVector> *out,
                     Tick at)
{
    Tick done = at;
    timedBatch(count, 1, done, [&](std::size_t i, std::vector<PhysOp> &ops) {
        const flash::Payload page = ftl_.readPage(start + i, ops);
        // The host gets its own bytes; flash keeps the payload.
        if (out)
            out->push_back(page ? *page : BitVector());
        return true;
    });
    return done;
}

EnduranceStats
SsdDevice::endurance() const
{
    EnduranceStats e;
    const Bytes page = cfg_.geometry.pageBytes;
    // ftl_ is logically const here; counters are read-only.
    const Ftl &f = ftl_;
    e.hostBytes = f.hostPagesWritten() * page;
    e.reallocBytes = f.parabitPagesWritten() * page;
    e.gcBytes = f.gcPagesWritten() * page;
    e.blockErases = f.blockErases();
    return e;
}

double
SsdDevice::internalReadBandwidth() const
{
    // With cache read, sensing overlaps transfer; when enough chips
    // share a channel the bus saturates and per-channel throughput is
    // its raw rate.  A device with few chips per channel is
    // sensing-limited instead.
    const flash::FlashTiming &t = cfg_.timing;
    const double page = static_cast<double>(cfg_.geometry.pageBytes);
    const double per_chip_array =
        page / ticks::toSec(t.msbReadTime()); // worst-case page kind
    const double array_limit = per_chip_array *
                               cfg_.geometry.chipsPerChannel *
                               cfg_.geometry.diesPerChip *
                               cfg_.geometry.planesPerDie;
    const double bus_limit = t.channelBytesPerSec;
    const double per_channel = std::min(array_limit, bus_limit);
    return per_channel * cfg_.geometry.channels;
}

} // namespace parabit::ssd
