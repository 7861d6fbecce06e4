/**
 * @file
 * The ParaBit SSD-controller modules (paper Fig 9, Section 4.3):
 * Operands ReAllocation and Parallel Read, operating on the batch lists
 * produced by CMD Parse.
 *
 * Every op runs one per-page pipeline (executePageOp): resolve the
 * operands, reallocate or stage them, sense, and on failure fall back
 * to ECC-clean host reads.  NOT is its unary case: it has no first
 * operand and senses its operand's own wordline, with the NOT-LSB or
 * NOT-MSB sequence chosen from the page it reads.
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
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
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
 *     bitline's vote margin reaches minMargin;
 *  3. 5-vote majority, same acceptance;
 *  4. up to maxRetries repeats of the top rung, each delayed by
 *     retryBackoff;
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
    int maxVotes = 5;
    /** Minimum per-bitline vote margin (|ones - zeros|) for a voted
     *  rung to be accepted. */
    int minMargin = 3;
    int maxRetries = 2;
    Tick retryBackoff = flash::kDefaultRetryBackoff;
    bool hostFallback = true;
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

    /** Single two-operand bulk op over @p pages consecutive pages. */
    ExecResult executeOp(flash::BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
                         std::uint32_t pages, Mode mode, Tick at,
                         bool transfer_results = true);

    /** Unary NOT over one operand range; each page senses with the NOT
     *  sequence of the page it reads (LSB or MSB). */
    ExecResult executeNot(nvme::Lpn x, std::uint32_t pages, Mode mode,
                          Tick at, bool transfer_results = true);

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
    /** Host-side recompute; books its own timing; nullopt = the operands
     *  are unreachable. */
    using Fallback = std::function<std::optional<BitVector>(Tick &)>;

    /** One sensing site, wrapped for the reliability ladder. */
    struct SenseRequest
    {
        flash::PhysPageAddr loc; ///< plane whose latch column runs it
        int senseCount = 0;      ///< SROs per execution
        Bytes xferIn = 0;        ///< buffer reload bytes per execution
        Bytes resultXfer = 0;    ///< result bytes out (once, on success)
        /** One fresh execution; arg receives injected bit errors. */
        std::function<BitVector(int *)> execute;
        Fallback fallback;
        /** Predicted result parity when the operand payloads are known
         *  (XOR/XNOR/NOT). */
        std::optional<bool> expectedParity;
    };

    /** Result of one page op: its data (functional runs), completion
     *  tick and status. */
    struct SenseOutcome
    {
        std::optional<BitVector> data;
        Tick done = 0;
        ExecStatus status = ExecStatus::kOk;
    };

    /** Run @p req through the escalation ladder (see ReliabilityPolicy);
     *  the legacy single execution when the policy is disabled. */
    SenseOutcome runSense(const SenseRequest &req, Tick ready,
                          ExecStats &stats);

    /**
     * Degrade to the host path: with the policy's host fallback on, run
     * @p fallback from @p ready; @p if_unreachable is the status when it
     * finds no operands to read.  kUncorrectable when the fallback is
     * off.
     */
    SenseOutcome fallBack(const Fallback &fallback, Tick ready,
                          ExecStats &stats, ExecStatus if_unreachable);

    /** Known-answer self-test verdict for @p loc's plane (cached). */
    bool planeComputeTrusted(const flash::PhysPageAddr &loc, Tick &ready,
                             ExecStats &stats);

    /**
     * Execute one page op of @p op, every op and mode: resolve the
     * operands, reallocate or stage them, sense, fall back.  X comes
     * from @p x_lpn, or from @p x_buf (the previous chain step's
     * in-buffer result, functional runs only); a unary op has neither.
     * Counts the op on the per-mode/per-op instruments.
     */
    SenseOutcome executePageOp(flash::BitwiseOp op,
                               std::optional<nvme::Lpn> x_lpn,
                               const BitVector *x_buf, nvme::Lpn y_lpn,
                               Mode mode, Tick at, Bytes result_xfer,
                               ExecStats &stats);

    /**
     * Operands ReAllocation: read the operands that live in flash (one
     * drain), then, once the reads complete, program copies onto one
     * fresh wordline (a second drain): X and Y as an LSB/MSB pair, or a
     * unary op's Y alone on an LSB-only page.  X is read into @p x
     * from @p x_lpn when set, else @p x already holds it; @p y receives
     * Y.  The copies share these payloads, which the caller keeps for
     * parity prediction and a free host fallback.  @return where to
     * sense; nullopt when the copies could not be placed (program
     * retries exhausted).
     */
    std::optional<flash::PhysPageAddr>
    reallocate(bool unary, std::optional<nvme::Lpn> x_lpn, nvme::Lpn y_lpn,
               Tick &ready, ExecStats &stats, flash::Payload &x,
               flash::Payload &y);

    /**
     * LocFree staging: read @p x_lpn from flash and program it onto an
     * LSB-only page in the plane of @p y, in one drain.  @return the
     * staged page; nullopt when it could not be placed.
     */
    std::optional<flash::PhysPageAddr>
    stageIntoPlane(nvme::Lpn x_lpn, const flash::PhysPageAddr &y,
                   Tick &ready, ExecStats &stats);

    /** Next internal LPN for a controller-made copy. */
    nvme::Lpn claimScratch() { return scratchLpn_--; }

    /** Count one page op of (@p mode, @p op) on the registered
     *  per-mode/per-op instruments. */
    void noteOp(Mode mode, flash::BitwiseOp op);

    /** Fold one finished execution into the registered ladder/traffic
     *  counters and emit its formula span on the global TraceSink. */
    void noteExec(const ExecStats &stats);

    ssd::SsdDevice *ssd_;
    nvme::Lpn scratchLpn_; ///< internal LPNs for reallocated copies
    ReliabilityPolicy policy_;
    /** Per-plane self-test verdicts (flat plane index -> trusted). */
    std::unordered_map<ssd::PlaneIndex, bool> planeTrust_;

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
