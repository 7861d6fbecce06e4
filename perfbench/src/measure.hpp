/**
 * @file
 * Measurement vocabulary shared by the benchmark's workloads: the
 * per-pass record a workload returns, the result oracle, the outcome
 * tally and the order statistics every metric is reported with.
 *
 * Two clocks appear here and are never mixed: *host* seconds are what
 * the simulator takes to run (CPU time of its thread, see Clock; read
 * only by the benchmark), *simulated* ticks are what the modelled SSD
 * would take (the device clock).  Metric names carry which one they use
 * (`sim` in the name, or a simulated-layer unit such as `_ms_p50`).
 */

#ifndef PERFBENCH_MEASURE_HPP_
#define PERFBENCH_MEASURE_HPP_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "common/stats.hpp"
#include "flash/op_sequences.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

/**
 * Host time of the simulator: CPU time of the calling thread.  The
 * simulator is single-threaded and does no I/O, so its CPU time is its
 * cost; unlike wall time it leaves out the stretches the process spends
 * descheduled by other load on a shared host.
 */
struct Clock
{
    using rep = std::int64_t;
    using period = std::nano;
    using duration = std::chrono::nanoseconds;
    using time_point = std::chrono::time_point<Clock>;
    static constexpr bool is_steady = true;

    static time_point now() noexcept;
};

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * The tail statistic of the end-to-end latency: the highest percentile
 * that still has at least ten samples beyond it.  With n samples in
 * ascending order that is the (n-10)-th smallest value, percentile
 * 100*(n-10)/n; it does not exist for n <= 10.
 */
struct Tail
{
    bool defined = false;
    double value = 0;
    double percentile = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples strictly after the reported rank
};

Tail tailOf(std::vector<double> v);

/**
 * Median of the samples of @p hs pooled (all with one bucket layout),
 * interpolated linearly inside the bucket that holds it; 0 when empty.
 */
double histogramMedian(const std::vector<const parabit::Histogram *> &hs);

/** Host-side reference result of a binary bitwise op. */
parabit::BitVector hostBitwise(parabit::flash::BitwiseOp op,
                               const parabit::BitVector &x,
                               const parabit::BitVector &y);

/** Result pages of one op compared with the oracle. */
struct PageVerdict
{
    std::size_t wrongPages = 0;
    /** Wrong pages whose index is not in the caller's known-defect set. */
    std::size_t unexplained = 0;
};

/**
 * Compare @p got with @p want page by page.  A missing or short page is
 * wrong.  @p known_defect (may be empty) flags page indices where the
 * benchmark predicted a wrong result before running the op.
 */
PageVerdict checkPages(const std::vector<parabit::BitVector> &got,
                       const std::vector<parabit::BitVector> &want,
                       const std::vector<bool> &known_defect = {});

/**
 * Outcome tally of the ops a pass attempted.  An op fails when its
 * status is not OK or its result differs from the oracle; error_rate is
 * the failed share of the attempts.  A wrong result the benchmark
 * predicted from the operand placement (the location-free both-MSB
 * case) still counts in wrongResults and errorRate(), but not in
 * unexpected(): the run stays valid while the defect is documented.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t badStatus = 0;
    std::uint64_t wrongResults = 0;
    std::uint64_t predictedWrong = 0; ///< wrong results at predicted sites
    std::uint64_t wrongPages = 0;
    std::uint64_t checkedPages = 0;

    /** Record one op. */
    void note(bool status_ok, const PageVerdict &v, std::size_t pages);

    std::uint64_t failed() const { return badStatus + wrongResults; }
    std::uint64_t unexpected() const
    {
        return badStatus + wrongResults - predictedWrong;
    }
    double
    errorRate() const
    {
        return attempted ? static_cast<double>(failed()) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

/** Host-time self-time buckets of the simulator's profiler. */
using ProfTotals = parabit::obs::Profiler::Totals;

/**
 * One pass of a workload: build the device, set it up, run the fixed,
 * seed-derived op sequence once.  Every simulated quantity in a pass is
 * a function of the seed alone, so all passes of one run must agree on
 * `sim` exactly (checked in main.cpp); host times differ per pass.
 */
struct PassOut
{
    double setupS = 0; ///< host: device build + precondition/placement
    /** host: time inside the simulator's API calls of the op loop (the
     *  benchmark's own oracle work and bookkeeping excluded) */
    double loopS = 0;
    std::uint64_t ops = 0;
    Tally tally;
    std::vector<double> simLatencyMs; ///< per op, submit -> completion
    double hostBytes = 0;             ///< bytes the ops carried
    double simMakespanS = 0;          ///< simulated span of the op loop

    /** Deterministic simulated values compared across passes. */
    std::map<std::string, double> sim;
    /** Per-layer values; host times are meaningful in traced passes. */
    std::map<std::string, double> layer;
    /** Human-readable lines (the accuracy table). */
    std::vector<std::string> notes;
};

/** Profiler, registry and event counter around one traced pass. */
class TraceWindow
{
  public:
    /** Enable the metrics registry (before the device is built) and the
     *  profiler when @p traced. */
    explicit TraceWindow(bool traced);
    ~TraceWindow();
    TraceWindow(const TraceWindow &) = delete;
    TraceWindow &operator=(const TraceWindow &) = delete;

    /** Registry counter value (0 when absent or untraced). */
    std::uint64_t counter(const std::string &name) const;
    /** Registry histogram, or nullptr. */
    const parabit::Histogram *histogram(const std::string &name) const;

    /** Profiler self-time totals so far (zeros when untraced). */
    ProfTotals profile() const;
    /** Event-engine callbacks dispatched since construction. */
    std::uint64_t events() const;

  private:
    bool traced_;
    std::uint64_t events0_;
};

/** Fill the layer metrics every workload reports from the profiler and
 *  event counter (ssd.event_engine, ssd.sched/ssd.ftl/flash self time,
 *  obs). */
void addProfileLayers(const TraceWindow &tw, PassOut &out);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP_
