/**
 * @file
 * SsdDevice: the simulated SSD — chips, FTL and the timing model.
 *
 * Functional behaviour lives in the chip array and the FTL; timing
 * lives in the TransactionScheduler: every PhysOp — page reads,
 * programs, erases, scrub scans and ParaBit sensing sequences — is
 * converted to a phase-decomposed DeviceTransaction and arbitrated per
 * channel and per plane (array operations — the device exploits
 * plane-level parallelism for reads, programs and ParaBit sensing, the
 * fourth level of SSD parallelism the paper builds on).  Under the
 * default FCFS policy this reproduces the historical greedy
 * Timeline-booking behaviour tick-for-tick — multi-chip interleaving on
 * a channel, cache-read overlap of sensing with transfer, plane-level
 * parallelism — deterministically; other policies reorder within the
 * bounds described in ssd/sched/policy.hpp.
 *
 * Synchronous callers book through scheduleOps, which submits one
 * batch and drains it in one call.  submitOps +
 * drainTransactions exist for HostInterface's per-round batching: it
 * queues every plain I/O of one pump round before a single drain, so
 * non-FCFS policies have something to arbitrate between.  Both take a
 * span, so a caller books a vector it reuses, or one local PhysOp,
 * without building a container.  place() (every placement helper of
 * core::ParaBitDevice), writePages() and readPages() are one timed
 * batch each, written once: every chip clock moves to its start (its
 * programs are stamped with that tick), one FTL call per page fills one
 * op list, one scheduleOps books it, and the patrol scrubber gets its
 * turn at the completion.
 */

#ifndef PARABIT_SSD_SSD_HPP_
#define PARABIT_SSD_SSD_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "common/invariant.hpp"
#include "ssd/config.hpp"
#include "ssd/endurance.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/ftl.hpp"
#include "ssd/health.hpp"
#include "ssd/media.hpp"
#include "ssd/rain.hpp"
#include "ssd/sched/scheduler.hpp"

namespace parabit::ssd {

/** The simulated SSD; see file comment. */
class SsdDevice
{
  public:
    explicit SsdDevice(const SsdConfig &cfg);

    const SsdConfig &config() const { return cfg_; }
    Ftl &ftl() { return ftl_; }
    const flash::FlashGeometry &geometry() const { return cfg_.geometry; }

    /** @name Timed host-level I/O: one timed batch each (file comment). */
    /// @{

    /** How a placement lays out its pages (paper Sections 4.3, 5.5). */
    enum class PageShape : std::uint8_t
    {
        kPage,    ///< host path (Ftl::writePage): striped, both halves
        kLsbOnly, ///< LSB page, its MSB left free (Ftl::writeLsbOnly)
        kPair,    ///< page i of each side on one wordline (Ftl::writePair)
    };

    /** @p pages consecutive logical pages of one shape; see place(). */
    struct Placement
    {
        PageShape shape = PageShape::kPage;
        Lpn start = 0;     ///< first page (a pair's LSB side)
        Lpn pairStart = 0; ///< kPair: first page of the MSB side
        std::size_t pages = 0;
        std::span<const BitVector> data{}; ///< page bits; empty = metadata
        std::span<const BitVector> pairData{}; ///< kPair: the MSB side's
        /** kLsbOnly and kPair: the flat plane every page goes to. */
        std::optional<flash::PlaneIndex> plane = std::nullopt;
    };

    /**
     * Write every page of @p p, submitted at @p now, which advances to
     * the completion.  @return whether all were written (false when the
     * FTL ran out of space or program retries, or the plane is dead).
     */
    bool place(const Placement &p, Tick &now);

    /** As place() of PageShape::kPage from @p start, one @p data entry
     *  per page; a null entry writes metadata only. */
    bool writePages(Lpn start, const std::vector<const BitVector *> &data,
                    Tick &now);

    /**
     * Read @p count consecutive logical pages starting at @p start.
     * @param out if non-null, receives the page contents.
     * @return completion time.
     */
    Tick readPages(Lpn start, std::size_t count, std::vector<BitVector> *out,
                   Tick at);
    /// @}

    /**
     * Book physical ops — an FTL call's traffic or ParaBit sensing
     * sequences — on the timing model (submit + drain in one batch).
     * @return the completion time of the last op.
     */
    Tick scheduleOps(std::span<const PhysOp> ops, Tick ready_at);

    /**
     * Whether consecutive scheduleOps calls with one ready tick may be
     * merged into one call over their ops and still book the same
     * ticks, busy time and transaction count: true under fcfs
     * (TransactionScheduler::booksAtSubmit) unless health tracking is
     * on, whose pump must see each call's completion in order.  A
     * merged call drains once, so only per-drain readings move: the
     * audit cadence and sched.queue.max_depth.
     */
    bool
    bookingsMerge() const
    {
        return sched_.booksAtSubmit() && !health_;
    }

    /** @name Per-round batching (HostInterface). */
    /// @{

    /**
     * Queue the physical ops of an FTL call as DeviceTransactions
     * without draining.  @return the id range, for groupCompletion()
     * after drainTransactions().
     */
    sched::TxGroup submitOps(std::span<const PhysOp> ops, Tick ready_at);

    /** Arbitrate and run every queued transaction to completion, then
     *  audit the registered invariant suites when the configured cadence
     *  (InvariantConfig::auditInterval) says this drain is due.
     *  @return the latest completion tick of the batch. */
    Tick drainTransactions();

    /** Latest completion over @p g (query before the next submit);
     *  @p fallback when @p g is empty. */
    Tick
    groupCompletion(sched::TxGroup g, Tick fallback) const
    {
        return sched_.groupCompletion(g, fallback);
    }

    sched::TransactionScheduler &scheduler() { return sched_; }
    const sched::TransactionScheduler &scheduler() const { return sched_; }
    /// @}

    /** @name Whole-device invariant audits (common/invariant.hpp). */
    /// @{

    /**
     * The device's invariant registry.  Suites registered at
     * construction: "ftl" (map bijection, OOB agreement, valid-count
     * accounting, LSB/MSB pairing), "sched" (queue drain/accounting,
     * work conservation), "rain" (stripe parity,
     * only when RAIN is enabled), "media" (clock/wear monotonicity
     * and the patrol-cursor range) and "health" (budget/transition
     * consistency, only when the health machine is enabled).  Tools
     * (parabit-model) and tests may run suites individually or
     * register extra ones.
     */
    InvariantRegistry &invariantRegistry() { return invariants_; }

    /**
     * Run every registered suite now and return the report.  Violations
     * are counted on the invariant.* metrics and dumped — one
     * structured "[id] subject: detail" line each — through the log
     * sink.  While power is lost (mid-cut, before powerCycle()) device
     * state is legitimately inconsistent, so the audit reports an empty
     * run instead of false positives.
     */
    InvariantReport auditInvariants();
    /// @}

    /**
     * Power restoration after a kPowerLoss fault (or a clean restart):
     * clears the injector's latched power-loss state, runs the FTL's
     * SPOR pass (checkpoint load + journal replay + OOB scan) and books
     * the recovery reads on the timing model.  The report's scanTime is
     * the simulated recovery duration starting at @p at.
     */
    RecoveryReport powerCycle(Tick at = 0);

    /** Endurance/write-traffic snapshot. */
    EnduranceStats endurance() const;

    /**
     * Peak sequential read bandwidth of the flash back-end in bytes/s
     * (channels saturated; sensing hidden by cache read).
     */
    double internalReadBandwidth() const;

    flash::Chip &chipAt(std::uint32_t channel, std::uint32_t chip)
    {
        return chips_.at(chipIndex(cfg_.geometry, {channel, chip}));
    }

    /** @name Fault injection (reliability layer). */
    /// @{

    /**
     * The device's fault injector, created on first use (seeded from
     * the device seed) and wired into every chip's fault hooks.
     */
    FaultInjector &faultInjector();

    bool hasFaultInjector() const { return injector_ != nullptr; }

    /** Register @p spec with the injector and apply its plane-level
     *  side effects (dead flags, stuck bitlines) to the chip array. */
    void injectFault(const FaultSpec &spec);

    /**
     * Drop every transient fault from the injector (storm over) and
     * re-derive the chip array's plane-level state, reviving stuck
     * bitlines and elevated-RBER regions.  Permanent damage (dead
     * planes/chips/dies, retired blocks) stays.  No-op without an
     * injector.  @return faults removed.
     */
    std::size_t clearTransientFaults();

    /** Whether @p a's plane still accepts operations. */
    bool
    planeAlive(const flash::PhysPageAddr &a)
    {
        return chipAt(a.channel, a.chip).planeOperational(a.die, a.plane);
    }
    /// @}

    /** @name Background media management (scrub + RAIN). */
    /// @{

    /** The RAIN parity controller, or null (cfg.rain.enabled false). */
    RainController *rain() { return rain_.get(); }

    /** The patrol scrubber, or null (cfg.media.enabled false). */
    MediaScrubber *media() { return media_.get(); }

    /** The health state machine, or null (cfg.health.enabled false). */
    DeviceHealth *health() { return health_.get(); }

    /**
     * Give the patrol scrubber a chance to run at simulated time @p now
     * (called automatically after every timed host I/O; benches and
     * tests may pump idle time explicitly).  Books any patrol/refresh
     * traffic on the timing model and emits a "scrub_pass" trace span.
     * @return the completion time of the pass's traffic (@p now when no
     * pass was due).
     */
    Tick pumpMedia(Tick now);

    /**
     * On-demand repair of an unreadable logical page (dead plane/die):
     * rebuild its content from the RAIN stripe and re-place it on an
     * operational plane.  @return true when @p lpn is readable again
     * (including the page-was-fine case); false on genuine data loss.
     */
    bool repairPage(Lpn lpn, Tick at);
    /// @}

  private:
    sched::DeviceTransaction toTransaction(const PhysOp &op,
                                           Tick ready_at) const;
    /** Channel ticks of an @p n byte transfer (0 for none). */
    Tick xferTicks(Bytes n) const;
    void installFaultHooks();

    /** Re-derive every plane's dead flag and stuck bitlines from the
     *  injector's schedule, so repeated injections stay idempotent. */
    void applyPlaneFaults();

    /** Advance every chip's simulated-time cursor (retention ages
     *  against it); monotonic, so out-of-order calls are safe. */
    void advanceClock(Tick now);

    /** The file comment's timed batch: @p page(i, ops) makes page i's
     *  FTL call into one op list reserved for @p ops_per_page ops a
     *  page; @p now advances to the completion.  @return whether every
     *  call returned true. */
    template <class PageFn>
    bool timedBatch(std::size_t pages, std::size_t ops_per_page, Tick &now,
                    PageFn &&page);

    /** Wire the per-subsystem suites into invariants_ (ctor). */
    void registerInvariantSuites();

    /** The "media" suite body: media.clock.monotonic (no wordline was
     *  programmed in the future of its chip's clock), media.wear.
     *  monotonic (erase counts and disturb charge never run backwards
     *  between audits) and the scrubber's media.cursor.range. */
    void auditMedia(InvariantReport &r);

    /** Run a cadenced audit after a drain, with a nonzero cadence;
     *  panics (fatalOnViolation) or logs when a suite reports
     *  violations. */
    void maybeAudit();

    SsdConfig cfg_;
    /** Channel ticks of one page transfer, computed once. */
    Tick pageXferTicks_;
    std::vector<flash::Chip> chips_;
    Ftl ftl_;
    sched::TransactionScheduler sched_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<RainController> rain_;
    std::unique_ptr<MediaScrubber> media_;
    std::unique_ptr<DeviceHealth> health_;

    /** End tick of the last span emitted on the device/media trace
     *  track.  Spans there must not overlap (parabit-trace checks
     *  per-track exclusivity) but callers may pump or repair at ticks
     *  before earlier booked work completed, so starts are clamped. */
    Tick mediaSpanEnd_ = 0;

    InvariantRegistry invariants_;
    std::uint64_t drainCount_ = 0; ///< drains since the last audit

    /** Last audited wear state of one block (media.wear.monotonic). */
    struct WearSnapshot
    {
        std::uint32_t erases = 0;
        std::vector<std::uint64_t> disturb; ///< per wordline
    };
    /** Linear block id -> wear seen at the previous audit. */
    std::unordered_map<std::uint64_t, WearSnapshot> wearSeen_;

    /** Registered invariant instruments (obs/metrics.hpp). */
    obs::Counter auditRuns_{"invariant.audits"};
    obs::Counter auditChecks_{"invariant.checks"};
    obs::Counter auditViolations_{"invariant.violations"};

    /** Registered recovery instruments (obs/metrics.hpp). */
    obs::Counter powerCycles_{"recovery.power_cycles"};
    obs::Counter pagesScannedTotal_{"recovery.pages_scanned"};
    obs::Counter journalReplayedTotal_{"recovery.journal_replayed"};
    obs::Counter mappingsRebuiltTotal_{"recovery.mappings_rebuilt"};
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_SSD_HPP_
