#include "ssd/ssd.hpp"

#include <algorithm>
#include <string>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace parabit::ssd {

SsdDevice::SsdDevice(const SsdConfig &cfg)
    : cfg_(cfg),
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
    for (std::size_t ci = 0; ci < chips_.size(); ++ci) {
        const flash::Chip &chip = chips_[ci];
        const Tick now = chip.now();
        for (std::uint32_t die = 0; die < g.diesPerChip; ++die) {
            for (std::uint32_t pl = 0; pl < g.planesPerDie; ++pl) {
                const flash::Plane &plane = chip.plane(die, pl);
                for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
                    const flash::Block *blk = plane.blockIfExists(b);
                    if (!blk)
                        continue;
                    const std::uint64_t key =
                        ((static_cast<std::uint64_t>(ci) * g.diesPerChip +
                          die) *
                             g.planesPerDie +
                         pl) *
                            g.blocksPerPlane +
                        b;
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
                    for (std::uint32_t wl = 0; wl < g.wordlinesPerBlock;
                         ++wl) {
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
    const std::uint32_t interval = cfg_.invariants.auditInterval;
    if (interval == 0)
        return;
    if (++drainCount_ < interval)
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
    for (std::size_t i = 0; i < chips_.size(); ++i) {
        const auto channel =
            static_cast<std::uint32_t>(i / cfg_.geometry.chipsPerChannel);
        const auto chip =
            static_cast<std::uint32_t>(i % cfg_.geometry.chipsPerChannel);
        FaultInjector *inj = injector_.get();
        auto to_phys = [channel, chip](const flash::ChipPageAddr &a) {
            flash::PhysPageAddr p;
            p.channel = channel;
            p.chip = chip;
            p.die = a.die;
            p.plane = a.plane;
            p.block = a.block;
            p.wordline = a.wordline;
            p.msb = a.msb;
            return p;
        };
        flash::ChipFaultHooks hooks;
        hooks.rberMultiplier = [inj, to_phys](const flash::ChipPageAddr &a) {
            return inj->rberMultiplier(to_phys(a));
        };
        hooks.programFails = [inj, to_phys](const flash::ChipPageAddr &a) {
            return inj->programShouldFail(to_phys(a));
        };
        hooks.eraseFails = [inj, to_phys](const flash::ChipPageAddr &a) {
            return inj->eraseShouldFail(to_phys(a));
        };
        hooks.disturbMultiplier = [inj,
                                   to_phys](const flash::ChipPageAddr &a) {
            return inj->disturbMultiplier(to_phys(a));
        };
        hooks.retentionMultiplier = [inj,
                                     to_phys](const flash::ChipPageAddr &a) {
            return inj->retentionMultiplier(to_phys(a));
        };
        chips_[i].setFaultHooks(std::move(hooks));
    }
}

void
SsdDevice::injectFault(const FaultSpec &spec)
{
    FaultInjector &inj = faultInjector();
    inj.addFault(spec);
    // Re-derive the plane-level state (dead flags, stuck sets) from the
    // injector so repeated injections stay idempotent.
    for (PlaneIndex p = 0; p < cfg_.geometry.planesTotal(); ++p) {
        const PlaneCoord c = planeCoord(cfg_.geometry, p);
        flash::Plane &pl = chipAt(c.channel, c.chip).plane(c.die, c.plane);
        pl.setDead(inj.planeDead(p));
        pl.setStuckBitlines(inj.stuckBitlines(p));
    }
}

std::size_t
SsdDevice::clearTransientFaults()
{
    if (!injector_)
        return 0;
    const std::size_t removed = injector_->clearTransient();
    // Re-derive the plane-level state from the thinned schedule, the
    // same way injectFault() applies it: stuck-bitline sets shrink and
    // permanent dead flags re-assert.
    for (PlaneIndex p = 0; p < cfg_.geometry.planesTotal(); ++p) {
        const PlaneCoord c = planeCoord(cfg_.geometry, p);
        flash::Plane &pl = chipAt(c.channel, c.chip).plane(c.die, c.plane);
        pl.setDead(injector_->planeDead(p));
        pl.setStuckBitlines(injector_->stuckBitlines(p));
    }
    return removed;
}

sched::DeviceTransaction
SsdDevice::toTransaction(const PhysOp &op, Tick ready_at) const
{
    const flash::FlashTiming &t = cfg_.timing;
    const Bytes page = cfg_.geometry.pageBytes;
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
        tx.xferOutTicks = t.transferTime(page);
        break;
      case PhysOp::Kind::kPageProgram:
        tx.cls = sched::TxClass::kProgram;
        tx.xferInTicks = t.transferTime(page);
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
    }
    return tx;
}

sched::DeviceTransaction
SsdDevice::toTransaction(const ArrayJob &job, Tick ready_at) const
{
    const flash::FlashTiming &t = cfg_.timing;
    sched::DeviceTransaction tx;
    tx.cls = sched::TxClass::kParaBit;
    tx.addr = job.loc;
    tx.readyAt = ready_at;
    tx.cmdTicks = t.tCmdOverhead;
    if (job.xferInBytes > 0)
        tx.xferInTicks = t.transferTime(job.xferInBytes);
    tx.arrayTicks = t.senseTime(job.sroCount);
    if (job.xferOutBytes > 0)
        tx.xferOutTicks = t.transferTime(job.xferOutBytes);
    return tx;
}

template <typename Item>
sched::TxGroup
SsdDevice::submitEach(const std::vector<Item> &items, Tick ready_at)
{
    sched::TxGroup g;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::uint64_t id =
            sched_.submit(toTransaction(items[i], ready_at));
        if (i == 0)
            g.lo = id;
        g.hi = id + 1;
    }
    return g;
}

sched::TxGroup
SsdDevice::submitOps(const std::vector<PhysOp> &ops, Tick ready_at)
{
    return submitEach(ops, ready_at);
}

Tick
SsdDevice::scheduleOps(const std::vector<PhysOp> &ops, Tick ready_at)
{
    const sched::TxGroup g = submitOps(ops, ready_at);
    drainTransactions();
    return sched_.groupCompletion(g, ready_at);
}

Tick
SsdDevice::scheduleArrayJobs(const std::vector<ArrayJob> &jobs, Tick ready_at)
{
    const sched::TxGroup g = submitEach(jobs, ready_at);
    drainTransactions();
    return sched_.groupCompletion(g, ready_at);
}

bool
SsdDevice::writePages(Lpn start, const std::vector<const BitVector *> &data,
                      Tick &now)
{
    advanceClock(now);
    std::vector<PhysOp> ops;
    bool ok = true;
    for (std::size_t i = 0; i < data.size(); ++i)
        if (!ftl_.writePage(start + i, data[i], ops))
            ok = false;
    now = scheduleOps(ops, now);
    pumpMedia(now);
    return ok;
}

Tick
SsdDevice::readPages(Lpn start, std::size_t count, std::vector<BitVector> *out,
                     Tick at)
{
    advanceClock(at);
    std::vector<PhysOp> ops;
    for (std::size_t i = 0; i < count; ++i) {
        const flash::Payload page = ftl_.readPage(start + i, ops);
        // The host gets its own bytes; flash keeps the payload.
        if (out)
            out->push_back(page ? *page : BitVector());
    }
    const Tick done = scheduleOps(ops, at);
    pumpMedia(done);
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
