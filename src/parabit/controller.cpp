#include "parabit/controller.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "flash/latch_array.hpp"
#include "flash/read_retry.hpp"
#include "nvme/parser.hpp"

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
    }
    return "?";
}

Controller::Controller(ssd::SsdDevice &ssd)
    : ssd_(&ssd), scratchLpn_(ssd.ftl().logicalPages() - 1)
{
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
Controller::noteOp(Mode mode, flash::BitwiseOp op)
{
    const std::size_t idx =
        static_cast<std::size_t>(mode) * flash::kNumBitwiseOps +
        static_cast<std::size_t>(op);
    ++opCounters_[idx];
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

flash::ChipPageAddr
chipAddr(const flash::PhysPageAddr &a)
{
    return flash::ChipPageAddr{a.die, a.plane, a.block, a.wordline, a.msb};
}

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
    const ssd::PlaneIndex p = ssd::planeIndex(
        ssd_->geometry(), {loc.channel, loc.chip, loc.die, loc.plane});
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

    std::vector<ssd::PhysOp> ops;
    const nvme::Lpn sx = claimScratch();
    const nvme::Lpn sy = claimScratch();
    const flash::Payload pa = flash::makePayload(std::move(a));
    const flash::Payload pb = flash::makePayload(std::move(b));
    const auto pair = ftl.writePair(sx, sy, pa, pb, ops, p);
    stats.pagePrograms += 2;
    ready = ssd_->scheduleOps(ops, ready);
    if (!pair) {
        // Cannot even place the test pattern there; don't compute there.
        planeTrust_[p] = false;
        return false;
    }

    // XOR and XNOR of the pair check every bitline against both an
    // expected 0 and an expected 1, so a stuck column must show in one
    // of them no matter which value it is pinned to.  Each is 3-vote
    // majority so random sensing errors don't condemn a healthy plane.
    const flash::ChipPageAddr ca = chipAddr(pair->lsb);
    flash::Chip &chip = ssd_->chipAt(pair->lsb.channel, pair->lsb.chip);
    int sense_total = 0;
    auto voted = [&](flash::BitwiseOp op) {
        std::vector<BitVector> runs;
        for (int k = 0; k < 3; ++k) {
            int e = 0;
            runs.push_back(chip.opCoLocated(op, ca, &e));
            stats.bitErrors += static_cast<std::uint64_t>(e);
        }
        sense_total += 3 * flash::coLocatedProgram(op).senseCount();
        return flash::majorityVote(runs);
    };
    const BitVector vx = voted(flash::BitwiseOp::kXor);
    const BitVector vn = voted(flash::BitwiseOp::kXnor);
    stats.senseOps += static_cast<std::uint64_t>(sense_total);
    ready = ssd_->scheduleArrayJobs(
        {ssd::ArrayJob{pair->lsb, sense_total, 0, 0}}, ready);

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

Controller::SenseOutcome
Controller::runSense(const SenseRequest &req, Tick ready, ExecStats &stats)
{
    SenseOutcome out;
    const bool functional = ssd_->config().storeData;

    auto book = [&](int executions, bool xfer_result) {
        stats.senseOps +=
            static_cast<std::uint64_t>(req.senseCount) * executions;
        const Bytes rx = xfer_result ? req.resultXfer : 0;
        const Tick done = ssd_->scheduleArrayJobs(
            {ssd::ArrayJob{req.loc, req.senseCount * executions,
                           req.xferIn * executions, rx}},
            ready);
        stats.resultBytes += rx;
        return done;
    };

    if (!policy_.enabled || !functional) {
        // Legacy single execution.  Timing-only runs with the policy on
        // still book initialVotes executions, so redundancy ladders can
        // be timed without payloads.
        const int execs =
            policy_.enabled ? std::max(1, policy_.initialVotes) : 1;
        if (functional && req.execute) {
            int errors = 0;
            out.data = req.execute(&errors);
            stats.bitErrors += static_cast<std::uint64_t>(errors);
        }
        out.done = book(execs, true);
        return out;
    }

    if (!req.execute) {
        // Nothing to verify (no payload producer); book and move on.
        out.done = book(std::max(1, policy_.initialVotes), true);
        return out;
    }

    // Consistent faults (stuck bitlines) make every redundant run agree
    // on the same wrong answer; the known-answer self-test screens them
    // out before any voting is trusted.
    if (!planeComputeTrusted(req.loc, ready, stats))
        return fallBack(req.fallback, ready, stats, ExecStatus::kDataLoss);

    auto run = [&] {
        int errors = 0;
        BitVector r = req.execute(&errors);
        stats.bitErrors += static_cast<std::uint64_t>(errors);
        return r;
    };
    auto parity_ok = [&](const BitVector &v) {
        if (!req.expectedParity)
            return true;
        ++stats.parityChecks;
        return oddParity(v) == *req.expectedParity;
    };

    const int max_votes =
        policy_.maxVotes % 2 == 0 ? policy_.maxVotes - 1 : policy_.maxVotes;
    int rung = std::clamp(policy_.initialVotes, 1, std::max(1, max_votes));
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
            pass = flash::lowMarginCount(runs, policy_.minMargin) == 0 &&
                   parity_ok(candidate);
        }
        if (pass) {
            accepted = std::move(candidate);
            break;
        }
        ++stats.detections;
        if (rung < max_votes) {
            // Escalate; earlier runs stay in the ballot.
            rung = std::min(rung + 2, max_votes);
            ++stats.voteEscalations;
            continue;
        }
        if (retries < policy_.maxRetries) {
            ++retries;
            ++stats.retries;
            runs.clear();
            ready += policy_.retryBackoff * static_cast<Tick>(retries);
            continue;
        }
        break;
    }

    const Tick sensed = book(executions, accepted.has_value());
    if (!accepted) // ladder exhausted
        return fallBack(req.fallback, sensed, stats, ExecStatus::kDataLoss);
    out.data = std::move(*accepted);
    out.done = sensed;
    return out;
}

Controller::SenseOutcome
Controller::fallBack(const Fallback &fallback, Tick ready, ExecStats &stats,
                     ExecStatus if_unreachable)
{
    SenseOutcome out;
    if (!policy_.enabled || !policy_.hostFallback || !fallback) {
        out.status = ExecStatus::kUncorrectable;
    } else if (auto fb = fallback(ready)) {
        ++stats.hostFallbacks;
        out.data = std::move(*fb);
    } else {
        out.status = if_unreachable;
    }
    out.done = ready;
    return out;
}

std::optional<flash::PhysPageAddr>
Controller::reallocate(bool unary, std::optional<nvme::Lpn> x_lpn,
                       nvme::Lpn y_lpn, Tick &ready, ExecStats &stats,
                       flash::Payload &x, flash::Payload &y)
{
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;

    // Read the operands that live in flash as one scheduler batch:
    // co-plane reads arbitrate against each other (and against
    // co-pending traffic) rather than being booked one call at a time.
    std::vector<ssd::PhysOp> ops;
    if (x_lpn) {
        x = ftl.readPage(*x_lpn, ops);
        ++stats.pageReads;
    }
    y = ftl.readPage(y_lpn, ops);
    ++stats.pageReads;
    ready = ssd_->scheduleOps(ops, ready);

    // Program the copies once the reads complete, each under a scratch
    // LPN so the FTL tracks it.  A copy shares its operand's payload.
    ops.clear();
    std::optional<flash::PhysPageAddr> sense_at;
    if (unary) {
        sense_at = ftl.writeLsbOnly(claimScratch(), y, ops);
        ++stats.pagePrograms;
        stats.reallocBytes += page;
    } else {
        const nvme::Lpn sx = claimScratch();
        const nvme::Lpn sy = claimScratch();
        if (const auto pair = ftl.writePair(sx, sy, x, y, ops))
            sense_at = pair->lsb;
        stats.pagePrograms += 2;
        stats.reallocBytes += 2 * page;
    }
    ready = ssd_->scheduleOps(ops, ready);
    return sense_at;
}

std::optional<flash::PhysPageAddr>
Controller::stageIntoPlane(nvme::Lpn x_lpn, const flash::PhysPageAddr &y,
                           Tick &ready, ExecStats &stats)
{
    ssd::Ftl &ftl = ssd_->ftl();
    std::vector<ssd::PhysOp> ops;
    const flash::Payload staged = ftl.readPage(x_lpn, ops);
    ++stats.pageReads;
    const ssd::PlaneIndex target = ssd::planeIndex(
        ssd_->geometry(), {y.channel, y.chip, y.die, y.plane});
    const auto copy =
        ftl.writeLsbOnly(claimScratch(), staged, ops, target);
    ++stats.pagePrograms;
    stats.reallocBytes += ssd_->geometry().pageBytes;
    ready = ssd_->scheduleOps(ops, ready);
    return copy;
}

Controller::SenseOutcome
Controller::executePageOp(flash::BitwiseOp op, std::optional<nvme::Lpn> x_lpn,
                          const BitVector *x_buf, nvme::Lpn y_lpn, Mode mode,
                          Tick at, Bytes result_xfer, ExecStats &stats)
{
    ssd::Ftl &ftl = ssd_->ftl();
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    // A unary op (NOT) has no X: it senses its operand's own wordline and
    // counts once its flavour is known, below.
    const bool unary = flash::isUnary(op);
    if (!unary)
        noteOp(mode, op);

    auto y_addr = ftl.lookup(y_lpn);
    if (!y_addr)
        fatal("ParaBit: second operand LPN is unmapped");
    std::optional<flash::PhysPageAddr> x_addr =
        x_lpn ? ftl.lookup(*x_lpn) : std::nullopt;
    if (x_lpn && !x_addr)
        fatal("ParaBit: first operand LPN is unmapped");

    // A dead plane takes its resident operands with it — unless the
    // device carries RAIN parity, which rebuilds the page on a live
    // plane; only when that fails too is the data genuinely gone.
    if (!ftl.pageAccessible(y_lpn) && ssd_->repairPage(y_lpn, at))
        y_addr = ftl.lookup(y_lpn);
    if (x_lpn && !ftl.pageAccessible(*x_lpn) && ssd_->repairPage(*x_lpn, at))
        x_addr = ftl.lookup(*x_lpn);
    if (!ftl.pageAccessible(y_lpn) ||
        (x_lpn && !ftl.pageAccessible(*x_lpn)))
        return {std::nullopt, at, ExecStatus::kDataLoss};

    Tick ready = at;
    SenseRequest req;
    req.resultXfer = result_xfer;
    // Host-side fallback: conventional ECC-protected reads of the
    // operands plus CPU bitwise compute — bit-exact by construction.
    req.fallback = [this, &ftl, &stats, x_lpn, x_buf, y_lpn, op, unary,
                    functional](Tick &rdy) -> std::optional<BitVector> {
        if (!functional)
            return std::nullopt;
        std::vector<ssd::PhysOp> ops;
        const BitVector *x = x_buf;
        flash::Payload x_read;
        if (!x && x_lpn && ftl.pageAccessible(*x_lpn)) {
            x_read = ftl.readPage(*x_lpn, ops);
            x = x_read.get();
            ++stats.pageReads;
        }
        if (!x && !unary)
            return std::nullopt;
        if (!ftl.pageAccessible(y_lpn))
            return std::nullopt;
        const flash::Payload y = ftl.readPage(y_lpn, ops);
        ++stats.pageReads;
        rdy = ssd_->scheduleOps(ops, rdy);
        return cpuBitwise(op, x, *y);
    };

    // ----- Location-free: sense across wordlines, no reallocation. ----
    if (mode == Mode::kLocationFree && !unary) {
        if (!x_lpn) {
            // Chain continuation: the running result is re-loaded from
            // the controller buffer through the data-load path while Y
            // is sensed from its cells (paper Section 4.2) — no flash
            // program, no staging.
            req.loc = *y_addr;
            req.senseCount =
                flash::locationFreeProgram(op, flash::LocFreeVariant::kLsbLsb)
                    .senseCount();
            req.xferIn = page;
            if (functional && x_buf != nullptr)
                req.execute = [this, op, x_buf, loc = *y_addr](int *e) {
                    return ssd_->chipAt(loc.channel, loc.chip)
                        .opBufferedOperand(op, *x_buf, chipAddr(loc), e);
                };
            return runSense(req, ready, stats);
        }
        // Placement failure (here and below) leaves the operands intact,
        // so it degrades to the host path or reports kUncorrectable.
        // Stage a cross-plane operand into the plane of Y first; rare
        // under a sane layout.
        if (!x_addr || !x_addr->sameBitlines(*y_addr)) {
            x_addr = stageIntoPlane(*x_lpn, *y_addr, ready, stats);
            if (!x_addr)
                return fallBack(req.fallback, ready, stats,
                                ExecStatus::kUncorrectable);
        }

        // Pick the program variant from the physical placement; the
        // operations are commutative, so roles can swap.
        flash::PhysPageAddr m = *x_addr, n = *y_addr;
        flash::LocFreeVariant variant = flash::LocFreeVariant::kMsbLsb;
        if (m.msb && !n.msb) {
            // canonical
        } else if (!m.msb && n.msb) {
            std::swap(m, n);
        } else if (!m.msb && !n.msb) {
            variant = flash::LocFreeVariant::kLsbLsb;
        } else {
            // Both MSB: no variant reads two MSB pages, so stage X into
            // an LSB page.  The staged copy is still sensed as LSB-LSB
            // against Y's MSB page, which returns wrong pages (ROADMAP
            // item 2); the fix belongs in this branch.
            const auto staged = stageIntoPlane(*x_lpn, n, ready, stats);
            if (!staged)
                return fallBack(req.fallback, ready, stats,
                                ExecStatus::kUncorrectable);
            m = *staged;
            variant = flash::LocFreeVariant::kLsbLsb;
        }
        req.loc = n;
        req.senseCount = flash::locationFreeProgram(op, variant).senseCount();
        if (functional)
            req.execute = [this, op, m, n, variant](int *e) {
                return ssd_->chipAt(m.channel, m.chip)
                    .opLocationFree(op, chipAddr(m), chipAddr(n), e,
                                    variant);
            };
        return runSense(req, ready, stats);
    }

    // ----- Co-located sensing of one wordline. -------------------------
    flash::PhysPageAddr wl = *y_addr;
    flash::Payload x_known, y_known; ///< operand payloads met on the way
    if (unary) {
        // ReAlloc still moves the operand to a fresh LSB-only page (the
        // paper charges NOT the reallocation).
        if (mode == Mode::kReAllocate) {
            const auto copy = reallocate(true, std::nullopt, y_lpn, ready,
                                         stats, x_known, y_known);
            // NOT never needed the move for correctness: a copy that
            // cannot be placed leaves it sensing the original in place.
            if (copy)
                wl = *copy;
        }
        op = wl.msb ? flash::BitwiseOp::kNotMsb : flash::BitwiseOp::kNotLsb;
        noteOp(mode, op);
    } else if (mode != Mode::kPreAllocated || !x_addr ||
               !x_addr->sameWordline(*y_addr)) {
        // Unless pre-allocation already put the operands on one
        // wordline, pair them: X is read from pair_x when set, else
        // x_known holds it.  A buffered X becomes a payload once, here.
        std::optional<nvme::Lpn> pair_x = x_lpn;
        if (x_buf)
            x_known = flash::makePayload(*x_buf);
        bool dropped = false;
        if (mode == Mode::kPreAllocated && !y_addr->msb) {
            // Chain continuation: drop X (buffer or flash) into the free
            // MSB of Y's wordline — a single program.
            std::vector<ssd::PhysOp> ops;
            if (pair_x) {
                x_known = ftl.readPage(*pair_x, ops);
                ++stats.pageReads;
            }
            dropped =
                ftl.writeIntoFreeMsb(claimScratch(), *y_addr, x_known, ops);
            if (dropped) {
                ++stats.pagePrograms;
                stats.reallocBytes += page;
            }
            if (!ops.empty()) {
                // If the MSB was taken (or its block just got retired),
                // the full reallocation below reuses the X read here.
                ready = ssd_->scheduleOps(ops, ready);
                pair_x = std::nullopt;
            }
        }
        if (!dropped) {
            // ParaBit-ReAlloc (and the PreAllocated fallback): re-pair
            // the operands on a fresh wordline.  A binary op has no
            // in-place sensing to fall back on.
            const auto pair = reallocate(false, pair_x, y_lpn, ready, stats,
                                         x_known, y_known);
            if (!pair)
                return fallBack(req.fallback, ready, stats,
                                ExecStatus::kUncorrectable);
            wl = *pair;
        }
    }

    req.loc = wl;
    req.senseCount = flash::coLocatedProgram(op).senseCount();
    if (functional)
        req.execute = [this, op, wl](int *e) {
            return ssd_->chipAt(wl.channel, wl.chip)
                .opCoLocated(op, chipAddr(wl), e);
        };
    if (functional && y_known && (unary || x_known)) {
        // Operand payloads are in hand: the fallback is a free exact
        // recompute, and the ladder (the only reader of the parity) can
        // predict it for XOR, XNOR and NOT.
        if (policy_.enabled)
            req.expectedParity =
                predictedParity(op, x_known.get(), *y_known);
        req.fallback = [op, x = std::move(x_known), y = std::move(y_known)](
                           Tick &) -> std::optional<BitVector> {
            return cpuBitwise(op, x.get(), *y);
        };
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
    const Bytes page = ssd_->geometry().pageBytes;
    const bool functional = ssd_->config().storeData;
    const std::uint64_t retired_before = ssd_->ftl().retiredBlocks();

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
        if (b.secondOperand.kind == nvme::OperandRef::Kind::kBatchResult)
            fatal("ParaBit: second operand must be a logical range");

        BatchOut &bo = outs[bi];
        for (std::size_t p = 0; p < b.subOps.size(); ++p) {
            const nvme::SubOperation &sub = b.subOps[p];
            std::optional<nvme::Lpn> x_lpn;
            const BitVector *x_buf = nullptr;
            if (x_from_result) {
                if (functional)
                    x_buf = &x_pages->at(p);
            } else if (!unary) {
                x_lpn = sub.first.lpn;
            }
            SenseOutcome o = executePageOp(b.intraOp, x_lpn, x_buf,
                                           sub.second.lpn, mode, ready, xfer,
                                           res.stats);
            bo.done = std::max(bo.done, o.done);
            res.status = std::max(res.status, o.status);
            if (functional)
                bo.pages.push_back(o.data ? std::move(*o.data) : BitVector());
        }
        res.stats.end = std::max(res.stats.end, bo.done);
    }

    if (!batches.empty()) {
        BatchOut &last = outs.back();
        if (result_lpn) {
            std::vector<ssd::PhysOp> ops;
            for (std::size_t p = 0; p < last.pages.size() ||
                                    (!functional &&
                                     p < batches.back().subOps.size());
                 ++p) {
                const BitVector *d =
                    functional ? &last.pages.at(p) : nullptr;
                if (!ssd_->ftl().writePage(*result_lpn + p, d, ops)) {
                    logWarn("ParaBit: result write-back failed at LPN " +
                            std::to_string(*result_lpn + p));
                    res.status =
                        std::max(res.status, ExecStatus::kUncorrectable);
                }
            }
            // The whole result write-back is one scheduler batch.
            res.stats.end = std::max(res.stats.end,
                                     ssd_->scheduleOps(ops, res.stats.end));
        }
        res.pages = std::move(last.pages);
    }
    res.stats.retiredBlocks += ssd_->ftl().retiredBlocks() - retired_before;
    noteExec(res.stats);
    return res;
}

ExecResult
Controller::executeOp(flash::BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
                      std::uint32_t pages, Mode mode, Tick at,
                      bool transfer_results)
{
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{
        nvme::OperandRef::logical(x, pages),
        nvme::OperandRef::logical(y, pages), op});
    nvme::CmdParser parser(ssd_->geometry().pageBytes);
    return executeBatches(parser.buildBatches(f), mode, at, transfer_results);
}

ExecResult
Controller::executeNot(nvme::Lpn x, std::uint32_t pages, Mode mode, Tick at,
                       bool transfer_results)
{
    // The unary page op: either NOT names it, and each page senses with
    // the flavour of the page it reads.
    return executeOp(flash::BitwiseOp::kNotLsb, x, x, pages, mode, at,
                     transfer_results);
}

} // namespace parabit::core
