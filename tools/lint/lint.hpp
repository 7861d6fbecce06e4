/**
 * @file
 * parabit-lint: AST-lite enforcement of repository invariants over the
 * C++ sources.
 *
 * The rules encode conventions the compiler cannot check but whose
 * violation has bitten (or would bite) this codebase:
 *
 *  - naked-duration: time quantities are constructed only in
 *    common/units.hpp and flash/timing.hpp (named constants); a
 *    `ticks::fromUs(25)` buried in a hot path silently desynchronises
 *    the timing, energy and cost models.  Reading durations out
 *    (ticks::toUs etc.) is always allowed.
 *  - raw-new-delete: no owning raw pointers; containers or
 *    std::unique_ptr only.
 *  - enum-switch-default: a `switch` whose cases name enum-class
 *    enumerators must not carry a `default:` label — the default would
 *    swallow newly added enumerators that -Wswitch would otherwise
 *    surface (e.g. a new BitwiseOp or ExecStatus).
 *  - nondeterminism: the simulator is seeded and byte-reproducible;
 *    std::rand, srand and std::random_device are banned everywhere
 *    (common/rng.hpp is the only randomness source), and wall-clock
 *    reads (system_clock, steady_clock, high_resolution_clock) are
 *    banned in src/ outside the self-profiler's translation unit
 *    (obs/profiler.cpp) — the one component whose whole job is
 *    measuring host time.  Tools and benches are exempt from the
 *    wall-clock leg; a deliberate exception elsewhere takes a
 *    `// lint:allow(nondeterminism)`.
 *  - include-guard: headers carry the canonical PARABIT_<PATH>_HPP_
 *    guard so copy-pasted guards can never collide.
 *  - first-include: a .cpp's first include is its own header, which
 *    keeps every header compiling standalone (self-contained).
 *  - using-namespace: no `using namespace` in headers, no
 *    `using namespace std` anywhere.
 *  - raw-stderr: no fprintf(stderr, ...) / std::cerr / std::clog in
 *    simulator sources outside common/logging.cpp — diagnostics go
 *    through common/logging.hpp so the pluggable log sink sees them
 *    (tests capture them, benches can silence them).  Tool mains
 *    (tools/) are exempt: their stderr is the user interface.
 *  - timeline-booking: the Timeline resource type is used only inside
 *    src/ssd/sched/ (and its own header) — everything else books
 *    device time through the TransactionScheduler, or a booking would
 *    bypass arbitration, the trace and the exclusivity check.
 *    Tools are exempt (the verifier rebuilds bookings to check them).
 *  - metric-name: MetricsRegistry handles (obs::Counter / obs::Gauge /
 *    obs::Hist) constructed with a literal name must follow the
 *    <subsystem>.<noun>[.<qualifier>] convention — 2 to 4 lowercase
 *    dotted segments — so dashboards and snapshot diffs can group by
 *    prefix.
 *  - bounded-retry: a loop whose header speaks of retrying (retry /
 *    requeue / attempt) must bound itself with a named cap (an
 *    identifier mentioning max, cap, budget, limit or bound — e.g.
 *    kMaxProgramRetries, retry_.maxRequeues) rather than a bare
 *    literal or nothing at all.  An unbounded or magic-number retry
 *    loop is exactly how a device hangs under a fault storm.
 *    Range-for over a fixed table (a retry ladder) is bounded by
 *    construction and exempt.
 *
 * A finding on a specific line can be suppressed with a trailing
 * `// lint:allow(<rule>)` comment; suppressions are deliberate and
 * reviewable.
 */

#ifndef PARABIT_TOOLS_LINT_LINT_HPP_
#define PARABIT_TOOLS_LINT_LINT_HPP_

#include <string>
#include <vector>

namespace parabit::lint {

/** One rule violation. */
struct Finding
{
    std::string file;    ///< path as reported to the user
    int line = 0;        ///< 1-based
    std::string rule;    ///< rule identifier, e.g. "naked-duration"
    std::string message; ///< what to do about it
};

/** Per-file facts the tree walker knows and snippet tests can fake. */
struct SourceInfo
{
    /** Path used to derive the canonical include guard (e.g.
     *  "flash/timing.hpp" -> PARABIT_FLASH_TIMING_HPP_). */
    std::string guardPath;
    /** For .cpp files: a sibling header with the same stem exists, so
     *  the first-include rule applies. */
    bool hasMatchingHeader = false;
    /** File is an allowed home for duration construction. */
    bool durationAllowed = false;
    /** File may write to stderr directly (logging backend, tool mains). */
    bool stderrAllowed = false;
    /** File may use the Timeline type directly (the scheduler subsystem
     *  and ssd/timeline.hpp itself). */
    bool timelineAllowed = false;
    /** File may read wall-clock time sources (the self-profiler TU,
     *  tools and benches); seeded randomness stays banned regardless. */
    bool wallClockAllowed = false;
};

/**
 * Lint one source file.  @p display_path is used in findings and to
 * decide header vs implementation rules (by extension).
 */
std::vector<Finding> lintSource(const std::string &display_path,
                                const std::string &content,
                                const SourceInfo &info);

/**
 * Recursively lint every .hpp/.cpp under @p root.  Guard paths are
 * derived relative to @p root; if the root directory is not named
 * "src", its basename becomes the leading guard component (so
 * tools/lint/lint.hpp expects PARABIT_TOOLS_LINT_LINT_HPP_).
 */
std::vector<Finding> lintTree(const std::string &root);

/** Render findings as a machine-readable JSON document. */
std::string toJson(const std::vector<Finding> &findings);

} // namespace parabit::lint

#endif // PARABIT_TOOLS_LINT_LINT_HPP_
