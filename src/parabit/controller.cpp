#include "parabit/controller.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "flash/latch_array.hpp"
#include "flash/read_retry.hpp"

namespace parabit::core {

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::kPreAllocated: return "ParaBit";
      case Mode::kReAllocate: return "ParaBit-ReAlloc";
      case Mode::kLocationFree: return "ParaBit-LocFree";
    }
    return "?";
}

const char *
execStatusName(ExecStatus s)
{
    switch (s) {
      case ExecStatus::kOk: return "ok";
      case ExecStatus::kUncorrectable: return "uncorrectable";
      case ExecStatus::kDataLoss: return "data-loss";
      case ExecStatus::kInvalidBatch: return "invalid-batch";
    }
    return "?";
}

Controller::Controller(ssd::SsdDevice &ssd)
    : ssd_(&ssd), scratchLpn_(ssd.ftl().logicalPages() - 1),
      window_(ssd.bookingsMerge() ? ssd.geometry().planesTotal() : 1)
{
    pending_.reserve(window_);
    // One registered counter per (mode, op) pair, e.g.
    // "parabit.ops.ParaBit-ReAlloc.XOR".
    opCounters_.reserve(static_cast<std::size_t>(kNumModes) *
                        flash::kNumBitwiseOps);
    for (int m = 0; m < kNumModes; ++m) {
        for (int o = 0; o < flash::kNumBitwiseOps; ++o) {
            opCounters_.emplace_back(
                std::string("parabit.ops.") +
                modeName(static_cast<Mode>(m)) + "." +
                flash::opName(static_cast<flash::BitwiseOp>(o)));
        }
    }
}

void
Controller::noteOps(Mode mode, flash::BitwiseOp op, std::uint64_t n)
{
    const std::size_t idx =
        static_cast<std::size_t>(mode) * flash::kNumBitwiseOps +
        static_cast<std::size_t>(op);
    opCounters_[idx] += n;
}

void
Controller::noteExec(const ExecStats &stats)
{
    ++formulas_;
    senseOps_ += stats.senseOps;
    reallocPrograms_ += stats.pagePrograms;
    reallocBytes_ += stats.reallocBytes;
    ladderSelfTests_ += stats.selfTests;
    ladderParityChecks_ += stats.parityChecks;
    ladderDetections_ += stats.detections;
    ladderVoteEscalations_ += stats.voteEscalations;
    ladderRetries_ += stats.retries;
    ladderHostFallbacks_ += stats.hostFallbacks;
    ladderRetiredBlocks_ += stats.retiredBlocks;
    if (obs::TraceSink *sink = obs::TraceSink::global()) {
        // Formulas overlap in logical time, so they go out as async
        // spans (matched by id), not complete events.
        const std::uint64_t id = nextFormulaSpanId_++;
        const obs::TrackId t = sink->track("host", "formulas");
        sink->asyncBegin(t, "parabit", "formula", id, stats.start,
                         {{"sense_ops", std::to_string(stats.senseOps),
                           false}});
        sink->asyncEnd(t, "parabit", "formula", id,
                       std::max(stats.end, stats.start));
    }
}

namespace {

/** @name The reliability ladder's fixed shape (see ReliabilityPolicy). */
/// @{
constexpr int kMaxVotes = 5; ///< top rung (odd)
/** Minimum per-bitline vote margin for a voted rung to pass. */
constexpr int kMinVoteMargin = 3;
constexpr int kMaxRetries = 2; ///< top-rung repeats before the fallback
/// @}

/** Host-CPU reference computation for the fallback path.  A unary op
 *  (NOT) reads its one operand, @p y, and passes a null @p x. */
BitVector
cpuBitwise(flash::BitwiseOp op, const BitVector *x, const BitVector &y)
{
    switch (op) {
      case flash::BitwiseOp::kAnd: return *x & y;
      case flash::BitwiseOp::kOr: return *x | y;
      case flash::BitwiseOp::kXor: return *x ^ y;
      case flash::BitwiseOp::kXnor: return ~(*x ^ y);
      case flash::BitwiseOp::kNand: return ~(*x & y);
      case flash::BitwiseOp::kNor: return ~(*x | y);
      case flash::BitwiseOp::kNotLsb:
      case flash::BitwiseOp::kNotMsb: return ~y;
    }
    return {};
}

/** @p lpn's map entry; fatal (@p what) when it is unmapped. */
ssd::LpnTable::Entry
operandEntry(const ssd::Ftl &ftl, nvme::Lpn lpn, const char *what)
{
    const ssd::LpnTable::Entry *e = ftl.mapping(lpn);
    if (!e)
        fatal(what);
    return *e;
}

bool
oddParity(const BitVector &v)
{
    return (v.popcount() & 1) != 0;
}

/** Result parity of @p op, predicted from its operand payloads; nullopt
 *  for the ops whose parity the operands' parities do not decide.  A
 *  unary op passes a null @p x. */
std::optional<bool>
predictedParity(flash::BitwiseOp op, const BitVector *x, const BitVector &y)
{
    // Inverting a page flips its parity iff the page has an odd width.
    const bool odd_width = (y.size() & 1) != 0;
    switch (op) {
      case flash::BitwiseOp::kXor: return oddParity(*x) != oddParity(y);
      case flash::BitwiseOp::kXnor:
        return (oddParity(*x) != oddParity(y)) != odd_width;
      case flash::BitwiseOp::kNotLsb:
      case flash::BitwiseOp::kNotMsb: return oddParity(y) != odd_width;
      case flash::BitwiseOp::kAnd:
      case flash::BitwiseOp::kOr:
      case flash::BitwiseOp::kNand:
      case flash::BitwiseOp::kNor: return std::nullopt;
    }
    return std::nullopt;
}

} // namespace

bool
Controller::planeComputeTrusted(const flash::PhysPageAddr &loc, Tick &ready,
                                ExecStats &stats)
{
    const flash::PlaneIndex p = flash::planeIndex(ssd_->geometry(), loc);
    auto it = planeTrust_.find(p);
    if (it != planeTrust_.end())
        return it->second;

    ++stats.selfTests;
    ssd::Ftl &ftl = ssd_->ftl();
    const std::size_t bits = ssd_->geometry().pageBits();

    // Deterministic known-answer patterns for this plane.
    Rng rng(ssd_->config().seed ^ (0x5E1F7E57ull + p));
    BitVector a(bits), b(bits);
    for (auto &w : a.words())
        w = rng.next();
    for (auto &w : b.words())
        w = rng.next();
    a.maskTail();
    b.maskTail();

    const nvme::Lpn sx = claimScratch();
    const nvme::Lpn sy = claimScratch();
    const flash::Payload pa = flash::makePayload(std::move(a));
    const flash::Payload pb = flash::makePayload(std::move(b));
    stageOps_.clear();
    const auto pair = ftl.writePair(sx, sy, pa, pb, stageOps_, p);
    stats.pagePrograms += 2;
    ready = ssd_->scheduleOps(stageOps_, ready);
    if (!pair) {
        // Cannot even place the test pattern there; don't compute there.
        planeTrust_[p] = false;
        return false;
    }

    // XOR and XNOR of the pair check every bitline against both an
    // expected 0 and an expected 1, so a stuck column must show in one
    // of them no matter which value it is pinned to.  Each is 3-vote
    // majority so random sensing errors don't condemn a healthy plane.
    flash::Chip &chip = ssd_->chipAt(pair->lsb.channel, pair->lsb.chip);
    int sense_total = 0;
    auto voted = [&](flash::BitwiseOp op) {
        std::vector<BitVector> runs;
        for (int k = 0; k < 3; ++k) {
            int e = 0;
            runs.push_back(chip.opCoLocated(op, pair->lsb, &e));
            stats.bitErrors += static_cast<std::uint64_t>(e);
        }
        sense_total += 3 * flash::coLocatedSenseCount(op);
        return flash::majorityVote(runs);
    };
    const BitVector vx = voted(flash::BitwiseOp::kXor);
    const BitVector vn = voted(flash::BitwiseOp::kXnor);
    stats.senseOps += static_cast<std::uint64_t>(sense_total);
    const ssd::PhysOp sense =
        ssd::PhysOp::paraBitSense(pair->lsb, sense_total, 0, 0);
    ready = ssd_->scheduleOps({&sense, 1}, ready);

    const BitVector ex = *pa ^ *pb;
    const bool ok = vx == ex && vn == ~ex;
    if (!ok) {
        ++stats.detections;
        logWarn("ParaBit: plane " + std::to_string(p) +
                " failed the compute self-test; using host fallback");
    }
    planeTrust_[p] = ok;
    ftl.trim(sx); // the test pages are garbage now
    ftl.trim(sy);
    return ok;
}

BitVector
Controller::senseOnce(const SenseSite &site, int *errors)
{
    switch (site.kind) {
      case SenseKind::kCoLocated:
        return ssd_->chipAt(site.loc.channel, site.loc.chip)
            .opCoLocated(site.op, site.loc, errors);
      case SenseKind::kLocationFree:
        return ssd_->chipAt(site.m.channel, site.m.chip)
            .opLocationFree(site.op, site.m, site.loc, errors, site.variant);
      case SenseKind::kBufferedOperand:
        return ssd_->chipAt(site.loc.channel, site.loc.chip)
            .opBufferedOperand(site.op, *site.xBuf, site.loc, errors);
    }
    return {};
}

Controller::SenseOutcome
Controller::runSense(const SenseRequest &req, Tick ready, ExecStats &stats)
{
    SenseOutcome out;
    if (!policy_.enabled || !canSense(req)) {
        // One execution: the policy is off, or there is nothing to
        // verify (a timing-only run, or no payload producer).
        out.data = senseSingle(req, req.resultXfer, stats);
        out.done = flushPending(ready, stats);
        return out;
    }

    // Consistent faults (stuck bitlines) make every redundant run agree
    // on the same wrong answer; the known-answer self-test screens them
    // out before any voting is trusted.
    if (!planeComputeTrusted(req.loc, ready, stats))
        return fallBack(req, ready, stats, ExecStatus::kDataLoss);

    auto run = [&] {
        int errors = 0;
        BitVector r = senseOnce(req, &errors);
        stats.bitErrors += static_cast<std::uint64_t>(errors);
        return r;
    };
    auto parity_ok = [&](const BitVector &v) {
        if (!req.expectedParity)
            return true;
        ++stats.parityChecks;
        return oddParity(v) == *req.expectedParity;
    };

    int rung = std::clamp(policy_.initialVotes, 1, kMaxVotes);
    if (rung % 2 == 0)
        ++rung;
    std::vector<BitVector> runs;
    int retries = 0;
    int executions = 0;
    std::optional<BitVector> accepted;

    while (true) {
        while (static_cast<int>(runs.size()) < rung) {
            runs.push_back(run());
            ++executions;
        }
        bool pass;
        BitVector candidate;
        if (rung == 1) {
            candidate = runs[0];
            pass = parity_ok(candidate);
            if (pass) {
                // Duplicate-execution compare: one more run must agree
                // bit for bit (catches what parity alone cannot).
                runs.push_back(run());
                ++executions;
                ++stats.parityChecks;
                pass = runs[1] == runs[0];
            }
        } else {
            candidate = flash::majorityVote(runs);
            pass = flash::lowMarginCount(runs, kMinVoteMargin) == 0 &&
                   parity_ok(candidate);
        }
        if (pass) {
            accepted = std::move(candidate);
            break;
        }
        ++stats.detections;
        if (rung < kMaxVotes) {
            // Escalate; earlier runs stay in the ballot.
            rung = std::min(rung + 2, kMaxVotes);
            ++stats.voteEscalations;
            continue;
        }
        if (retries < kMaxRetries) {
            ++retries;
            ++stats.retries;
            runs.clear();
            ready += flash::kRetryBackoff * static_cast<Tick>(retries);
            continue;
        }
        break;
    }

    pending_.push_back(
        senseOp(req, executions, accepted ? req.resultXfer : 0));
    const Tick sensed = flushPending(ready, stats);
    if (!accepted) // ladder exhausted
        return fallBack(req, sensed, stats, ExecStatus::kDataLoss);
    out.data = std::move(*accepted);
    out.done = sensed;
    return out;
}

Controller::SenseOutcome
Controller::fallBack(const SenseRequest &req, Tick ready, ExecStats &stats,
                     ExecStatus if_unreachable)
{
    SenseOutcome out;
    if (!policy_.enabled) {
        out.status = ExecStatus::kUncorrectable;
    } else if (auto fb = runHostFallback(req, ready, stats)) {
        ++stats.hostFallbacks;
        out.data = std::move(*fb);
    } else {
        out.status = if_unreachable;
    }
    out.done = ready;
    return out;
}

std::optional<BitVector>
Controller::runHostFallback(const SenseRequest &req, Tick &ready,
                            ExecStats &stats)
{
    if (!ssd_->config().storeData)
        return std::nullopt;
    const bool unary = flash::isUnary(req.op);
    // Both payloads in hand: a free exact recompute.
    if (req.y && (unary || req.x))
        return cpuBitwise(req.op, req.x.get(), *req.y);

    ssd::Ftl &ftl = ssd_->ftl();
    stageOps_.clear();
    const BitVector *x = req.xBuf;
    flash::Payload x_read;
    if (!x && req.xLpn && ftl.pageAccessible(*req.xLpn)) {
        x_read = ftl.readPage(*req.xLpn, stageOps_);
        x = x_read.get();
        ++stats.pageReads;
    }
    if (!x && !unary)
        return std::nullopt;
    if (!ftl.pageAccessible(req.yLpn))
        return std::nullopt;
    const flash::Payload y = ftl.readPage(req.yLpn, stageOps_);
    ++stats.pageReads;
    ready = ssd_->scheduleOps(stageOps_, ready);
    return cpuBitwise(req.op, x, *y);
}

std::optional<flash::PhysPageAddr>
Controller::reallocate(bool unary, std::optional<nvme::Lpn> x_lpn,
                       nvme::Lpn y_lpn, const Operands *resolved, Tick &ready,
                       ExecStats &stats, flash::Payload &x, flash::Payload &y)
{
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;

    // Read the operands that live in flash as one scheduler batch:
    // co-plane reads arbitrate against each other (and against
    // co-pending traffic) rather than being booked one call at a time.
    stageOps_.clear();
    if (x_lpn) {
        x = ftl.readPage(*x_lpn, stageOps_, resolved ? &resolved->x : nullptr);
        ++stats.pageReads;
    }
    y = ftl.readPage(y_lpn, stageOps_, resolved ? &resolved->y : nullptr);
    ++stats.pageReads;
    ready = ssd_->scheduleOps(stageOps_, ready);

    // Program the copies once the reads complete, each under a scratch
    // LPN so the FTL tracks it.  A copy shares its operand's payload.
    stageOps_.clear();
    std::optional<flash::PhysPageAddr> sense_at;
    if (unary) {
        sense_at = ftl.writeLsbOnly(claimScratch(), y, stageOps_);
        ++stats.pagePrograms;
        stats.reallocBytes += page;
    } else {
        const nvme::Lpn sx = claimScratch();
        const nvme::Lpn sy = claimScratch();
        if (const auto pair = ftl.writePair(sx, sy, x, y, stageOps_))
            sense_at = pair->lsb;
        stats.pagePrograms += 2;
        stats.reallocBytes += 2 * page;
    }
    ready = ssd_->scheduleOps(stageOps_, ready);
    return sense_at;
}

std::optional<flash::PhysPageAddr>
Controller::stageIntoPlane(nvme::Lpn x_lpn, const ssd::LpnTable::Entry &x_at,
                           const flash::PhysPageAddr &y, Tick &ready,
                           ExecStats &stats)
{
    ssd::Ftl &ftl = ssd_->ftl();
    stageOps_.clear();
    const flash::Payload staged = ftl.readPage(x_lpn, stageOps_, &x_at);
    ++stats.pageReads;
    const flash::PlaneIndex target = flash::planeIndex(ssd_->geometry(), y);
    const auto copy =
        ftl.writeLsbOnly(claimScratch(), staged, stageOps_, target);
    ++stats.pagePrograms;
    stats.reallocBytes += ssd_->geometry().pageBytes;
    ready = ssd_->scheduleOps(stageOps_, ready);
    return copy;
}

bool
Controller::locFreeSite(flash::BitwiseOp op, const flash::PhysPageAddr &a,
                        const flash::PhysPageAddr &b, SenseSite &s)
{
    if (a.msb && b.msb)
        return false;
    // The program reads page m and senses page loc: MSB-LSB takes the
    // MSB page as m, and two LSB pages take LSB-LSB.
    s.op = op;
    s.kind = SenseKind::kLocationFree;
    s.m = b.msb ? b : a;
    s.loc = b.msb ? a : b;
    s.variant = a.msb || b.msb ? flash::LocFreeVariant::kMsbLsb
                               : flash::LocFreeVariant::kLsbLsb;
    s.senseCount = flash::locationFreeSenseCount(op, s.variant);
    s.xferIn = 0;
    return true;
}

bool
Controller::inPlaceSite(flash::BitwiseOp op, Mode mode, const Operands &o,
                        SenseSite &s) const
{
    const flash::PhysPageAddr y = o.y.addr();
    if (flash::isUnary(op)) {
        // NOT senses its operand's own wordline, with the flavour of the
        // page it reads; ReAlloc still moves the operand to a fresh
        // LSB-only page first (the paper charges NOT the reallocation).
        if (mode == Mode::kReAllocate)
            return false;
        op = y.msb ? flash::BitwiseOp::kNotMsb : flash::BitwiseOp::kNotLsb;
    } else if (mode == Mode::kLocationFree) {
        if (o.xLpn) {
            // Operands in different planes are staged into one first.
            const flash::PhysPageAddr x = o.x.addr();
            return x.sameBitlines(y) && locFreeSite(op, x, y, s);
        }
        // Chain continuation: the running result is re-loaded from the
        // controller buffer through the data-load path while Y is
        // sensed from its cells (paper Section 4.2) — no flash program,
        // no staging.
        s.op = op;
        s.kind = SenseKind::kBufferedOperand;
        s.loc = y;
        s.xBuf = o.xBuf;
        s.senseCount = flash::locationFreeSenseCount(
            op, flash::LocFreeVariant::kLsbLsb);
        s.xferIn = ssd_->geometry().pageBytes;
        return true;
    } else if (mode != Mode::kPreAllocated || !o.xLpn ||
               !o.x.addr().sameWordline(y)) {
        // Only pre-allocation puts both operands on one wordline.
        return false;
    }
    s.op = op;
    s.kind = SenseKind::kCoLocated;
    s.loc = y;
    s.senseCount = flash::coLocatedSenseCount(op);
    s.xferIn = 0;
    return true;
}

std::optional<BitVector>
Controller::senseSingle(const SenseSite &site, Bytes result_xfer,
                        ExecStats &stats)
{
    std::optional<BitVector> data;
    if (canSense(site)) {
        int errors = 0;
        data = senseOnce(site, &errors);
        stats.bitErrors += static_cast<std::uint64_t>(errors);
    }
    // With the policy on, a timing-only run still books initialVotes
    // executions, so redundancy ladders can be timed without payloads.
    const int execs = policy_.enabled ? std::max(1, policy_.initialVotes) : 1;
    pending_.push_back(senseOp(site, execs, result_xfer));
    return data;
}

Tick
Controller::flushPending(Tick ready, ExecStats &stats)
{
    if (pending_.empty())
        return 0;
    for (const ssd::PhysOp &op : pending_) {
        stats.senseOps += op.senseCount;
        stats.resultBytes += op.xferOutBytes;
    }
    const Tick done = ssd_->scheduleOps(pending_, ready);
    pending_.clear();
    return done;
}

Controller::SenseOutcome
Controller::executePageOp(flash::BitwiseOp op, Operands o, Mode mode, Tick at,
                          Bytes result_xfer, ExecStats &stats)
{
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    const bool unary = flash::isUnary(op);

    // A dead plane takes its resident operands with it — unless the
    // device carries RAIN parity, which rebuilds the page on a live
    // plane; only when that fails too is the data genuinely gone.
    if (!planesAlive(o)) {
        if (!ftl.pageAccessible(o.yLpn))
            ssd_->repairPage(o.yLpn, at);
        if (o.xLpn && !ftl.pageAccessible(*o.xLpn))
            ssd_->repairPage(*o.xLpn, at);
        if (!ftl.pageAccessible(o.yLpn) ||
            (o.xLpn && !ftl.pageAccessible(*o.xLpn)))
            return {std::nullopt, at, ExecStatus::kDataLoss};
        // A repair writes, so both entries are found again.
        o.y = *ftl.mapping(o.yLpn);
        if (o.xLpn)
            o.x = *ftl.mapping(*o.xLpn);
    }

    Tick ready = at;
    SenseRequest req;
    req.op = op;
    req.xBuf = o.xBuf;
    req.resultXfer = result_xfer;
    req.xLpn = o.xLpn;
    req.yLpn = o.yLpn;

    if (inPlaceSite(op, mode, o, req)) {
        if (unary)
            noteOps(mode, req.op);
        return runSense(req, ready, stats);
    }
    const flash::PhysPageAddr y = o.y.addr();

    // ----- Location-free: stage X into Y's plane. ----------------------
    // Placement failure (here and below) leaves the operands intact, so
    // it degrades to the host path or reports kUncorrectable.
    if (mode == Mode::kLocationFree && !unary) {
        flash::PhysPageAddr x = o.x.addr();
        if (!x.sameBitlines(y)) {
            // Rare under a sane layout.
            const auto staged = stageIntoPlane(*o.xLpn, o.x, y, ready, stats);
            if (!staged)
                return fallBack(req, ready, stats,
                                ExecStatus::kUncorrectable);
            x = *staged;
        }
        if (!locFreeSite(op, x, y, req)) {
            // Both MSB: no variant reads two MSB pages, so stage X into
            // an LSB page.  The staged copy is still sensed as LSB-LSB
            // against Y's MSB page, which returns wrong pages (ROADMAP
            // item 2); the fix belongs in this branch.
            const auto staged = stageIntoPlane(*o.xLpn, o.x, y, ready, stats);
            if (!staged)
                return fallBack(req, ready, stats,
                                ExecStatus::kUncorrectable);
            req.kind = SenseKind::kLocationFree;
            req.variant = flash::LocFreeVariant::kLsbLsb;
            req.loc = y;
            req.m = *staged;
            req.senseCount = flash::locationFreeSenseCount(op, req.variant);
        }
        return runSense(req, ready, stats);
    }

    // ----- Co-located sensing of one fresh wordline. -------------------
    flash::PhysPageAddr wl = y;
    flash::Payload x_known, y_known; ///< operand payloads met on the way
    if (unary) {
        // ReAlloc moves the operand to a fresh LSB-only page.
        const auto copy = reallocate(true, std::nullopt, o.yLpn, &o, ready,
                                     stats, x_known, y_known);
        // NOT never needed the move for correctness: a copy that
        // cannot be placed leaves it sensing the original in place.
        if (copy)
            wl = *copy;
        op = wl.msb ? flash::BitwiseOp::kNotMsb : flash::BitwiseOp::kNotLsb;
        noteOps(mode, op);
    } else {
        // Pair the operands: X is read from pair_x when set, else
        // x_known holds it.  A buffered X becomes a payload once, here.
        std::optional<nvme::Lpn> pair_x = o.xLpn;
        const Operands *resolved = &o;
        if (o.xBuf)
            x_known = flash::makePayload(*o.xBuf);
        bool dropped = false;
        if (mode == Mode::kPreAllocated && !y.msb) {
            // Chain continuation: drop X (buffer or flash) into the free
            // MSB of Y's wordline — a single program.
            stageOps_.clear();
            if (pair_x) {
                x_known = ftl.readPage(*pair_x, stageOps_, &o.x);
                ++stats.pageReads;
            }
            dropped =
                ftl.writeIntoFreeMsb(claimScratch(), y, x_known, stageOps_);
            resolved = nullptr; // the drop may have written
            if (dropped) {
                ++stats.pagePrograms;
                stats.reallocBytes += page;
            }
            if (!stageOps_.empty()) {
                // If the MSB was taken (or its block just got retired),
                // the full reallocation below reuses the X read here.
                ready = ssd_->scheduleOps(stageOps_, ready);
                pair_x = std::nullopt;
            }
        }
        if (!dropped) {
            // ParaBit-ReAlloc (and the PreAllocated fallback): re-pair
            // the operands on a fresh wordline.  A binary op has no
            // in-place sensing to fall back on.
            const auto pair = reallocate(false, pair_x, o.yLpn, resolved,
                                         ready, stats, x_known, y_known);
            if (!pair)
                return fallBack(req, ready, stats,
                                ExecStatus::kUncorrectable);
            wl = *pair;
        }
    }

    req.op = op;
    req.loc = wl;
    req.senseCount = flash::coLocatedSenseCount(op);
    if (functional && y_known && (unary || x_known)) {
        // Operand payloads are in hand: the fallback is a free exact
        // recompute, and the ladder (the only reader of the parity) can
        // predict it for XOR, XNOR and NOT.
        if (policy_.enabled)
            req.expectedParity =
                predictedParity(op, x_known.get(), *y_known);
        req.x = std::move(x_known);
        req.y = std::move(y_known);
    }
    return runSense(req, ready, stats);
}

ExecResult
Controller::executeBatches(const std::vector<nvme::Batch> &batches, Mode mode,
                           Tick at, bool transfer_results,
                           std::optional<nvme::Lpn> result_lpn)
{
    ExecResult res;
    res.stats.start = at;
    res.stats.end = at;
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    const std::uint64_t retired_before = ftl.retiredBlocks();
    // The ladder checks each sense with its payloads and starts its
    // fallback from the sense's completion, so it books each at once.
    const bool ladder = policy_.enabled && functional;

    // Per-batch results: the data pages (functional mode) and, for
    // chain continuations, the logical scratch homes if programmed.
    struct BatchOut
    {
        std::vector<BitVector> pages;
        Tick done = 0;
    };
    std::vector<BatchOut> outs(batches.size());

    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        const nvme::Batch &b = batches[bi];
        const bool is_final = bi + 1 == batches.size();
        const Bytes xfer = (is_final && transfer_results) ? page : 0;

        // Resolve the first operand: logical pages or an earlier
        // batch's result (kept in the controller buffer, paper Fig 12).
        // A unary op has none.
        const bool unary = flash::isUnary(b.intraOp);
        const bool x_from_result =
            !unary &&
            b.firstOperand.kind == nvme::OperandRef::Kind::kBatchResult;
        const std::vector<BitVector> *x_pages = nullptr;
        Tick ready = at;
        if (x_from_result) {
            const BatchOut &prev = outs.at(b.firstOperand.batchId);
            x_pages = &prev.pages;
            ready = std::max(ready, prev.done);
        }
        if (b.secondOperand.kind == nvme::OperandRef::Kind::kBatchResult) {
            // Sensing needs Y in cells; a result is only in the buffer.
            res.status = ExecStatus::kInvalidBatch;
            break;
        }

        BatchOut &bo = outs[bi];
        if (functional)
            bo.pages.reserve(b.subOps.size());
        // A NOT counts under the flavour of each page it senses.
        if (!unary)
            noteOps(mode, b.intraOp, b.subOps.size());
        std::uint64_t msb_nots = 0, lsb_nots = 0; ///< in-place NOTs
        SenseSite site;
        for (std::size_t p = 0; p < b.subOps.size(); ++p) {
            const nvme::SubOperation &sub = b.subOps[p];
            Operands o;
            o.yLpn = sub.second.lpn;
            o.y = operandEntry(ftl, o.yLpn,
                               "ParaBit: second operand LPN is unmapped");
            if (x_from_result) {
                if (functional)
                    o.xBuf = &x_pages->at(p);
            } else if (!unary) {
                o.xLpn = sub.first.lpn;
                o.x = operandEntry(ftl, *o.xLpn,
                                   "ParaBit: first operand LPN is unmapped");
            }

            if (ladder || !planesAlive(o) ||
                !inPlaceSite(b.intraOp, mode, o, site)) {
                bo.done = std::max(bo.done, flushPending(ready, res.stats));
                SenseOutcome out =
                    executePageOp(b.intraOp, o, mode, ready, xfer, res.stats);
                bo.done = std::max(bo.done, out.done);
                res.status = std::max(res.status, out.status);
                if (functional)
                    bo.pages.push_back(out.data ? std::move(*out.data)
                                                : BitVector());
                continue;
            }

            // In place: sense, and add the sense to the pending list.
            std::optional<BitVector> data = senseSingle(site, xfer, res.stats);
            if (functional)
                bo.pages.push_back(data ? std::move(*data) : BitVector());
            if (unary)
                ++(site.op == flash::BitwiseOp::kNotMsb ? msb_nots
                                                         : lsb_nots);
            if (pending_.size() == window_)
                bo.done = std::max(bo.done, flushPending(ready, res.stats));
        }
        bo.done = std::max(bo.done, flushPending(ready, res.stats));
        if (unary) {
            noteOps(mode, flash::BitwiseOp::kNotLsb, lsb_nots);
            noteOps(mode, flash::BitwiseOp::kNotMsb, msb_nots);
        }
        res.stats.end = std::max(res.stats.end, bo.done);
    }

    if (!batches.empty() && res.status != ExecStatus::kInvalidBatch) {
        BatchOut &last = outs.back();
        if (result_lpn) {
            stageOps_.clear();
            for (std::size_t p = 0; p < last.pages.size() ||
                                    (!functional &&
                                     p < batches.back().subOps.size());
                 ++p) {
                const BitVector *d =
                    functional ? &last.pages.at(p) : nullptr;
                if (!ftl.writePage(*result_lpn + p, d, stageOps_)) {
                    logWarn("ParaBit: result write-back failed at LPN " +
                            std::to_string(*result_lpn + p));
                    res.status =
                        std::max(res.status, ExecStatus::kUncorrectable);
                }
            }
            // The whole result write-back is one scheduler batch.
            res.stats.end = std::max(
                res.stats.end, ssd_->scheduleOps(stageOps_, res.stats.end));
        }
        res.pages = std::move(last.pages);
    }
    res.stats.retiredBlocks += ftl.retiredBlocks() - retired_before;
    noteExec(res.stats);
    return res;
}

} // namespace parabit::core
