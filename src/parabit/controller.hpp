/**
 * @file
 * The ParaBit SSD-controller modules (paper Fig 9, Section 4.3):
 * Operands ReAllocation and Parallel Read, operating on the batch lists
 * produced by CMD Parse.  executeBatches is the one entry point: the
 * device facade (core::ParaBitDevice) and the NVMe host interface build
 * the batch lists, a single op or NOT as a one-term formula.
 *
 * executeBatches walks each batch's pages.  A page finds its operands
 * in the map (once: their entries go on to any reads) and checks their
 * planes; when its sense needs no data moved first (inPlaceSite: a
 * co-located pair in ParaBit, a same-plane pair in LocFree, a buffered
 * chain continuation, NOT in place) and no reliability ladder runs,
 * that is all it does besides the sense itself on a functional device:
 * its PhysOp joins the pending list.  Every other page runs the one
 * per-page routine (executePageOp): repair, reallocate or stage the
 * operands, sense through the ladder, and on failure fall back to
 * ECC-clean host reads.  NOT is its unary case: it has no first operand
 * and senses its operand's own wordline, with the NOT-LSB or NOT-MSB
 * sequence chosen from the page it reads.  A sensing site (SenseSite)
 * and a ladder's host fallback (SenseRequest) are data, every stage's
 * physical ops go through one reused vector and the senses through the
 * pending list, so a page op books its traffic without touching the
 * heap.
 *
 * The pending list is one reused vector, reserved to a stripe (one page
 * op per plane), that goes to the scheduler as one submission, at the
 * batch's ready tick, when it holds a stripe, before anything else
 * books during the formula (executePageOp's reallocation reads and
 * programs, LocFree staging, the free-MSB drop, the plane self-test,
 * host-fallback reads, repairPage; and the result write-back), and
 * when the batch ends; the batch is done at its latest completion.
 * Submission order and ready ticks stay those of one submission per
 * sense, and fcfs books each transaction in closed form at submit, so
 * every tick stays too.  A sense outside the ladder (senseSingle) is
 * one rule wherever it runs: in place, or in executePageOp after a
 * move, where runSense books it through the list at once.  The ladder
 * (policy on, functional run) books each sense at once too, since its
 * fallback starts from the sense's completion.  Where a batch boundary
 * would change a booking (the event-path policies arbitrate within a
 * batch; health tracking must pump each completion in order) the
 * device says so (SsdDevice::bookingsMerge) and the list holds one
 * sense.
 *
 * Three execution modes mirror the paper's evaluated schemes:
 *
 *  - kPreAllocated ("ParaBit"): operands were placed for computation in
 *    advance (co-located pairs for the first op, LSB-only layout for
 *    chain continuations), so the first operation senses immediately;
 *    chained results are dropped into the free MSB page of the next
 *    operand's wordline when possible (one program), else re-paired.
 *
 *  - kReAllocate ("ParaBit-ReAlloc"): operands start wherever the FTL
 *    put them; every operation first reads its operand pages and
 *    re-programs them onto a fresh wordline (a co-located pair, or an
 *    LSB-only page for NOT), then senses.
 *
 *  - kLocationFree ("ParaBit-LocFree"): operands only need to share a
 *    plane (bitlines); the extended latch circuit computes across
 *    wordlines with zero reallocation.  Operands in different planes
 *    are first staged into a common plane (counted, rare by layout).
 */

#ifndef PARABIT_PARABIT_CONTROLLER_HPP_
#define PARABIT_PARABIT_CONTROLLER_HPP_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "flash/block.hpp"
#include "flash/op_sequences.hpp"
#include "flash/timing.hpp"
#include "nvme/batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ssd/ssd.hpp"

namespace parabit::core {

/** Execution scheme; see file comment. */
enum class Mode : std::uint8_t
{
    kPreAllocated = 0, ///< "ParaBit"
    kReAllocate,       ///< "ParaBit-ReAlloc"
    kLocationFree,     ///< "ParaBit-LocFree"
};

inline constexpr int kNumModes = 3;

const char *modeName(Mode m);

/**
 * Typed outcome of an execution — the reliability contract is that a
 * formula either completes bit-exact or reports one of these; it never
 * silently returns corrupt data.  Ordered by severity so the worst
 * status of a multi-page formula is just std::max.
 */
enum class ExecStatus : std::uint8_t
{
    kOk = 0,
    /** The ladder (votes, retries, fallback) could not produce a result
     *  it can vouch for. */
    kUncorrectable,
    /** An operand page is gone (its plane died); no path to the data. */
    kDataLoss,
    /** A batch the device cannot run: its second operand is an earlier
     *  batch's result (a Fig 12 chain batch).  The formula stops there
     *  and returns no pages. */
    kInvalidBatch,
};

const char *execStatusName(ExecStatus s);

/**
 * Detect-and-escalate policy for ParaBit executions (paper Section 5.8:
 * results bypass ECC, so sensing errors must be handled by the
 * controller).  The ladder:
 *
 *  1. one execution, checked cheaply — a parity prediction when the
 *     operand payloads are in hand (XOR, XNOR and NOT make parities
 *     checkable), plus a duplicate execution compared bit-for-bit;
 *  2. 3-vote majority (flash::majorityVote), accepted only when every
 *     bitline's vote margin (|ones - zeros|) reaches 3;
 *  3. 5-vote majority, same acceptance;
 *  4. up to two repeats of the top rung, repeat k delayed by k x 100 us;
 *  5. host-side fallback: conventional ECC-protected page reads plus
 *     CPU bitwise compute — always bit-exact, never fast.
 *
 * Consistent faults (stuck bitlines) defeat redundant execution — every
 * run is wrong the same way — so each plane's compute path is first
 * qualified by a known-answer self-test; planes that fail it go
 * straight to the host fallback.
 */
struct ReliabilityPolicy
{
    bool enabled = false; ///< off = the legacy single-execution path
    /** Rung the ladder starts at (1, 3 or 5; benches pin 3/5 to
     *  measure a fixed-redundancy configuration). */
    int initialVotes = 1;
};

/** Instrumentation of one executed formula/op. */
struct ExecStats
{
    Tick start = 0;
    Tick end = 0;
    std::uint64_t senseOps = 0;     ///< total SROs issued
    std::uint64_t pageReads = 0;    ///< operand page reads (reallocation)
    std::uint64_t pagePrograms = 0; ///< reallocation / result programs
    Bytes reallocBytes = 0;         ///< bytes re-programmed for alignment
    Bytes resultBytes = 0;          ///< result bytes transferred to host
    std::uint64_t bitErrors = 0;    ///< sensing errors in ParaBit outputs

    /** @name Reliability-ladder counters (ReliabilityPolicy). */
    /// @{
    std::uint64_t selfTests = 0;       ///< plane known-answer self-tests
    std::uint64_t parityChecks = 0;    ///< cheap checks (parity/duplicate)
    std::uint64_t detections = 0;      ///< checks or votes that flagged
    std::uint64_t voteEscalations = 0; ///< rung promotions (1→3, 3→5)
    std::uint64_t retries = 0;         ///< top-rung repeats (with backoff)
    std::uint64_t hostFallbacks = 0;   ///< ops completed host-side
    std::uint64_t retiredBlocks = 0;   ///< blocks retired while executing
    /// @}

    Tick elapsed() const { return end - start; }

    void
    accumulate(const ExecStats &o)
    {
        end = std::max(end, o.end);
        senseOps += o.senseOps;
        pageReads += o.pageReads;
        pagePrograms += o.pagePrograms;
        reallocBytes += o.reallocBytes;
        resultBytes += o.resultBytes;
        bitErrors += o.bitErrors;
        selfTests += o.selfTests;
        parityChecks += o.parityChecks;
        detections += o.detections;
        voteEscalations += o.voteEscalations;
        retries += o.retries;
        hostFallbacks += o.hostFallbacks;
        retiredBlocks += o.retiredBlocks;
    }
};

/** Result of a formula execution. */
struct ExecResult
{
    /** Result pages (empty in timing-only mode).  A page whose status
     *  was not kOk is present but empty — never silently corrupt. */
    std::vector<BitVector> pages;
    ExecStats stats;
    /** Worst per-page status of the execution. */
    ExecStatus status = ExecStatus::kOk;
};

/** The in-SSD ParaBit execution engine; see file comment. */
class Controller
{
  public:
    /**
     * @param ssd the device to operate
     * @param transfer_results whether results stream to the host after
     *        computation (encryption-style workloads keep them in-SSD)
     */
    explicit Controller(ssd::SsdDevice &ssd);

    /**
     * Execute a batch list (from nvme::CmdParser) in @p mode, submitted
     * at @p at.  Batches with kBatchResult operands consume earlier
     * batches' results.  A batch of a unary op (NOT) reads only its
     * second operand.
     *
     * @param transfer_results stream final result to the host
     * @param result_lpn if set, the final result is also written back
     *        into flash at this logical page range
     */
    ExecResult executeBatches(const std::vector<nvme::Batch> &batches,
                              Mode mode, Tick at, bool transfer_results = true,
                              std::optional<nvme::Lpn> result_lpn =
                                  std::nullopt);

    ssd::SsdDevice &ssd() { return *ssd_; }

    const ReliabilityPolicy &reliability() const { return policy_; }
    void
    setReliability(const ReliabilityPolicy &p)
    {
        policy_ = p;
    }

    /** Drop cached plane self-test verdicts (after injecting faults). */
    void invalidatePlaneTrust() { planeTrust_.clear(); }

    /** Reset controller state after a power cycle: self-test verdicts
     *  are volatile, and the scratch-LPN cursor (claimScratch) restarts
     *  (its pages are internal copies, safe to reuse after SPOR rebuilt
     *  the map). */
    void
    onPowerCycle()
    {
        planeTrust_.clear();
        scratchLpn_ = ssd_->ftl().logicalPages() - 1;
    }

  private:
    /** Which chip op one execution of a sensing site runs. */
    enum class SenseKind : std::uint8_t
    {
        kCoLocated,       ///< both operands on wordline `loc`
        kLocationFree,    ///< across wordlines: pages `m` and `loc`
        kBufferedOperand, ///< X from `xBuf`, Y sensed at `loc`
    };

    /** Where one execution of a sense runs and what it books. */
    struct SenseSite
    {
        flash::BitwiseOp op = flash::BitwiseOp::kAnd;
        SenseKind kind = SenseKind::kCoLocated;
        flash::LocFreeVariant variant = flash::LocFreeVariant::kMsbLsb;
        flash::PhysPageAddr loc; ///< plane whose latch column runs it
        flash::PhysPageAddr m;   ///< kLocationFree: the other page
        int senseCount = 0;      ///< SROs per execution
        Bytes xferIn = 0;        ///< buffer reload bytes per execution
        const BitVector *xBuf = nullptr; ///< X in the controller buffer
    };

    /**
     * One sensing site, as data, for the reliability ladder: the site,
     * and what its result transfer and host fallback need.  The
     * fallback is conventional ECC-protected reads of the operands plus
     * CPU bitwise compute — bit-exact by construction — or, when the
     * page op already holds both operand payloads, the compute alone.
     */
    struct SenseRequest : SenseSite
    {
        Bytes resultXfer = 0; ///< result bytes out (once, on success)
        /** Predicted result parity when the operand payloads are known
         *  (XOR/XNOR/NOT). */
        std::optional<bool> expectedParity;
        /** @name Operands, for the fallback (X may be xBuf). */
        /// @{
        std::optional<nvme::Lpn> xLpn; ///< X in flash (binary ops)
        nvme::Lpn yLpn = 0;
        /** Payloads in hand: Y, and X unless the op is unary. */
        flash::Payload x, y;
        /// @}
    };

    /** A page op's operands as the map held them when resolved. */
    struct Operands
    {
        std::optional<nvme::Lpn> xLpn;   ///< X in flash (binary ops)
        const BitVector *xBuf = nullptr; ///< X in the controller buffer
        nvme::Lpn yLpn = 0;
        /** The entries of xLpn (when set) and yLpn: valid until the page
         *  op's first FTL write. */
        ssd::LpnTable::Entry x{}, y{};
    };

    /** Result of one page op: its data (functional runs), completion
     *  tick and status. */
    struct SenseOutcome
    {
        std::optional<BitVector> data;
        Tick done = 0;
        ExecStatus status = ExecStatus::kOk;
    };

    /** Whether the planes of @p o's operands accept operations. */
    bool
    planesAlive(const Operands &o)
    {
        return ssd_->planeAlive(o.y.addr()) &&
               (!o.xLpn || ssd_->planeAlive(o.x.addr()));
    }

    /** Whether a page op of @p op in @p mode on @p o senses with no
     *  data moved first (file comment), and if so, where: into @p s,
     *  which is left as it was otherwise (the operands must then be
     *  reallocated, staged or dropped into a free MSB first). */
    bool inPlaceSite(flash::BitwiseOp op, Mode mode, const Operands &o,
                     SenseSite &s) const;

    /** The location-free sense of @p op on pages @p a and @p b (same
     *  bitlines) into @p s, roles and variant picked from their halves
     *  (the ops commute); false, leaving @p s, when both are MSB pages,
     *  which no variant reads. */
    static bool locFreeSite(flash::BitwiseOp op, const flash::PhysPageAddr &a,
                            const flash::PhysPageAddr &b, SenseSite &s);

    /** One fresh execution of @p site on its chip; @p errors receives
     *  the injected bit errors. */
    BitVector senseOnce(const SenseSite &site, int *errors);

    /** Whether @p site can be sensed here: the device stores data and
     *  a buffered operand has its X in hand. */
    bool
    canSense(const SenseSite &site) const
    {
        return ssd_->config().storeData &&
               (site.kind != SenseKind::kBufferedOperand || site.xBuf);
    }

    /** The PhysOp of @p executions runs of @p site with @p result_xfer
     *  result bytes out. */
    static ssd::PhysOp
    senseOp(const SenseSite &site, int executions, Bytes result_xfer)
    {
        return ssd::PhysOp::paraBitSense(site.loc,
                                         site.senseCount * executions,
                                         site.xferIn * executions,
                                         result_xfer);
    }

    /**
     * A sense outside the ladder: run @p site once when it canSense,
     * counting its bit errors into @p stats, and append its PhysOp
     * (one run, or initialVotes with the policy on; @p result_xfer
     * bytes out) to the pending list.  @return the sensed page; nullopt
     * when nothing was sensed.
     */
    std::optional<BitVector> senseSingle(const SenseSite &site,
                                         Bytes result_xfer, ExecStats &stats);

    /** Run @p req through the escalation ladder (see ReliabilityPolicy);
     *  one senseSingle when the policy is disabled or @p req cannot be
     *  sensed.  Books through the pending list, which must be empty. */
    SenseOutcome runSense(const SenseRequest &req, Tick ready,
                          ExecStats &stats);

    /**
     * Degrade to the host path: with the policy's host fallback on, run
     * @p req's fallback from @p ready; @p if_unreachable is the status
     * when it finds no operands to read.  kUncorrectable when the
     * fallback is off.
     */
    SenseOutcome fallBack(const SenseRequest &req, Tick ready,
                          ExecStats &stats, ExecStatus if_unreachable);

    /** The host recompute of @p req's op, booking its reads from
     *  @p ready (advanced to their completion); nullopt = timing-only,
     *  or the operands are unreachable. */
    std::optional<BitVector> runHostFallback(const SenseRequest &req,
                                             Tick &ready, ExecStats &stats);

    /** Known-answer self-test verdict for @p loc's plane (cached). */
    bool planeComputeTrusted(const flash::PhysPageAddr &loc, Tick &ready,
                             ExecStats &stats);

    /**
     * Execute one page op of @p op on @p o, every op and mode, for the
     * pages that do more than an in-place sense: repair dead operand
     * planes, reallocate or stage the operands, sense through the
     * ladder, fall back.  Counts a NOT on the per-mode/per-op
     * instruments once its flavour is known.  The caller has flushed
     * the pending list.
     */
    SenseOutcome executePageOp(flash::BitwiseOp op, Operands o, Mode mode,
                               Tick at, Bytes result_xfer, ExecStats &stats);

    /**
     * Operands ReAllocation: read the operands that live in flash (one
     * drain), then, once the reads complete, program copies onto one
     * fresh wordline (a second drain): X and Y as an LSB/MSB pair, or a
     * unary op's Y alone on an LSB-only page.  X is read into @p x
     * from @p x_lpn when set, else @p x already holds it; @p y receives
     * Y.  @p resolved, when no FTL write came since it was resolved,
     * supplies both entries; null looks them up.  The copies share
     * these payloads, which the caller keeps for parity prediction and
     * a free host fallback.  @return where to sense; nullopt when the
     * copies could not be placed (program retries exhausted).
     */
    std::optional<flash::PhysPageAddr>
    reallocate(bool unary, std::optional<nvme::Lpn> x_lpn, nvme::Lpn y_lpn,
               const Operands *resolved, Tick &ready, ExecStats &stats,
               flash::Payload &x, flash::Payload &y);

    /**
     * LocFree staging: read @p x_lpn (map entry @p x_at) from flash and
     * program it onto an LSB-only page in the plane of @p y, in one
     * drain.  @return the staged page; nullopt when it could not be
     * placed.
     */
    std::optional<flash::PhysPageAddr>
    stageIntoPlane(nvme::Lpn x_lpn, const ssd::LpnTable::Entry &x_at,
                   const flash::PhysPageAddr &y, Tick &ready,
                   ExecStats &stats);

    /** Book the pending list (file comment) as one submission ready at
     *  @p ready, counting its sensings and result bytes into @p stats.
     *  @return its latest completion; 0 when it is empty. */
    Tick flushPending(Tick ready, ExecStats &stats);

    /** Next internal LPN for a controller-made copy. */
    nvme::Lpn claimScratch() { return scratchLpn_--; }

    /** Count @p n page ops of (@p mode, @p op) on the registered
     *  per-mode/per-op instruments. */
    void noteOps(Mode mode, flash::BitwiseOp op, std::uint64_t n = 1);

    /** Fold one finished execution into the registered ladder/traffic
     *  counters and emit its formula span on the global TraceSink. */
    void noteExec(const ExecStats &stats);

    ssd::SsdDevice *ssd_;
    nvme::Lpn scratchLpn_; ///< internal LPNs for reallocated copies
    /** The one stage's physical ops, refilled by each user (the
     *  reallocation, staging, the free-MSB drop, the read-based host
     *  fallback, the plane self-test, the result write-back) and booked
     *  before the next stage fills it. */
    std::vector<ssd::PhysOp> stageOps_;
    /** Senses not yet booked (file comment); at most window_ of them. */
    std::vector<ssd::PhysOp> pending_;
    /** A stripe, or one sense where a batch boundary changes bookings
     *  (SsdDevice::bookingsMerge). */
    std::size_t window_;
    ReliabilityPolicy policy_;
    /** Per-plane self-test verdicts (flat plane index -> trusted). */
    std::unordered_map<flash::PlaneIndex, bool> planeTrust_;

    /** @name Registered instruments (obs/metrics.hpp). */
    /// @{
    std::vector<obs::Counter> opCounters_; ///< [mode][op], built in ctor
    obs::Counter formulas_{"parabit.formulas"};
    obs::Counter senseOps_{"parabit.sense_ops"};
    obs::Counter reallocPrograms_{"parabit.realloc.programs"};
    obs::Counter reallocBytes_{"parabit.realloc.bytes"};
    obs::Counter ladderSelfTests_{"parabit.ladder.self_tests"};
    obs::Counter ladderParityChecks_{"parabit.ladder.parity_checks"};
    obs::Counter ladderDetections_{"parabit.ladder.detections"};
    obs::Counter ladderVoteEscalations_{"parabit.ladder.vote_escalations"};
    obs::Counter ladderRetries_{"parabit.ladder.retries"};
    obs::Counter ladderHostFallbacks_{"parabit.ladder.host_fallbacks"};
    obs::Counter ladderRetiredBlocks_{"parabit.ladder.retired_blocks"};
    /// @}
    std::uint64_t nextFormulaSpanId_ = 0;
};

} // namespace parabit::core

#endif // PARABIT_PARABIT_CONTROLLER_HPP_
