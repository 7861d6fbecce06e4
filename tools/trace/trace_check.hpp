/**
 * @file
 * parabit-trace: structural validation of the Chrome trace-event JSON
 * emitted by obs::TraceSink.
 *
 * A trace that *renders* in Perfetto can still be wrong — overlapping
 * spans on one resource track silently stack, a dangling async begin
 * just never closes.  This checker enforces what the simulator's
 * scheduling invariants promise:
 *
 *  - json: the file is well-formed JSON with a "traceEvents" array and
 *    every event carries the fields its phase requires (X: ts/dur/name,
 *    M: metadata name/args, b/e: cat/id/name).
 *  - async-pairing: every async begin ("b") has exactly one matching
 *    end ("e") with the same (pid, cat, id), the same name, and a
 *    non-decreasing timestamp.
 *  - track-exclusivity: "X" spans on resource tracks (processes
 *    "channels" and "dies") are pairwise disjoint — a channel moves one
 *    transfer at a time, a plane senses one operation at a time.
 *  - span-nesting: "X" spans on every other track nest or are disjoint
 *    (no partial overlap), the shape Chrome's span model assumes.
 *  - phase-order: spans of one device transaction (args.tx) follow the
 *    scheduler's phase machine — xfer_in, then the array portion
 *    (with optional suspend/resume cycles), then xfer_out —
 *    and only known phase names appear on resource tracks.
 *  - flow-linkage: every flow (events "s"/"t"/"f", matched globally by
 *    cat + id) has exactly one start and one finish with a consistent
 *    name, every step's timestamp lies within [start, finish], and
 *    every step lands on a resource track at the exact start of an
 *    "X" span there — the stitching that attributes each NVMe command
 *    to the device transactions that served it.  Step-less flows are
 *    legal (a command whose phases all collapsed to zero duration).
 */

#ifndef PARABIT_TOOLS_TRACE_TRACE_CHECK_HPP_
#define PARABIT_TOOLS_TRACE_TRACE_CHECK_HPP_

#include <cstddef>
#include <string>
#include <vector>

namespace parabit::tracecheck {

/** One validation failure. */
struct Finding
{
    std::string check;   ///< check identifier, e.g. "track-exclusivity"
    std::string message; ///< what is wrong, with event coordinates
};

/** Shape summary of a validated trace (for reporting). */
struct TraceStats
{
    std::size_t events = 0;     ///< total trace events
    std::size_t spans = 0;      ///< "X" complete events
    std::size_t asyncPairs = 0; ///< matched b/e pairs
    std::size_t flows = 0;      ///< matched s/f flow pairs
    std::size_t flowSteps = 0;  ///< "t" events across all flows
    std::size_t tracks = 0;     ///< named threads (thread_name metadata)
    std::size_t processes = 0;  ///< named processes
};

/** Result of checkTrace(): findings plus the trace shape. */
struct CheckResult
{
    TraceStats stats;
    std::vector<Finding> findings;

    bool ok() const { return findings.empty(); }
};

/** Parse and validate trace-event JSON text. */
CheckResult checkTrace(const std::string &json);

/** Render a result as a machine-readable JSON document. */
std::string toJson(const CheckResult &r);

} // namespace parabit::tracecheck

#endif // PARABIT_TOOLS_TRACE_TRACE_CHECK_HPP_
