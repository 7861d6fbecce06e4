#include "measure.hpp"

#include <algorithm>
#include <ctime>

#include "obs/metrics.hpp"
#include "ssd/event_engine.hpp"

namespace perfbench {

using parabit::BitVector;
using parabit::flash::BitwiseOp;

Clock::time_point
Clock::now() noexcept
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 +
                               ts.tv_nsec));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() <= 10)
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t rank = v.size() - 10; // 1-based
    t.defined = true;
    t.value = v[rank - 1];
    t.beyond = v.size() - rank;
    t.percentile = 100.0 * static_cast<double>(rank) /
                   static_cast<double>(v.size());
    return t;
}

double
histogramMedian(const std::vector<const parabit::Histogram *> &hs)
{
    if (hs.empty())
        return 0.0;
    const parabit::Histogram &layout = *hs.front();
    const std::size_t n = layout.buckets();
    double total = 0, seen = 0;
    std::vector<double> counts(n, 0.0);
    for (const parabit::Histogram *h : hs) {
        total += static_cast<double>(h->total());
        seen += static_cast<double>(h->underflow());
        for (std::size_t i = 0; i < n; ++i)
            counts[i] += static_cast<double>(h->bucketCount(i));
    }
    if (total == 0)
        return 0.0;
    const double half = 0.5 * total;
    const double width = n > 1 ? layout.bucketLo(1) - layout.bucketLo(0) : 0;
    if (seen >= half)
        return layout.bucketLo(0);
    for (std::size_t i = 0; i < n; ++i) {
        if (counts[i] > 0 && seen + counts[i] >= half)
            return layout.bucketLo(i) + width * (half - seen) / counts[i];
        seen += counts[i];
    }
    // The median sits in the overflow tally: report the upper edge.
    return layout.bucketLo(n - 1) + width;
}

BitVector
hostBitwise(BitwiseOp op, const BitVector &x, const BitVector &y)
{
    switch (op) {
      case BitwiseOp::kAnd: return x & y;
      case BitwiseOp::kOr: return x | y;
      case BitwiseOp::kXor: return x ^ y;
      case BitwiseOp::kXnor: return ~(x ^ y);
      case BitwiseOp::kNand: return ~(x & y);
      case BitwiseOp::kNor: return ~(x | y);
      case BitwiseOp::kNotLsb: return ~x;
      case BitwiseOp::kNotMsb: return ~y;
    }
    return {};
}

PageVerdict
checkPages(const std::vector<BitVector> &got, const std::vector<BitVector> &want,
           const std::vector<bool> &known_defect)
{
    PageVerdict v;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (i < got.size() && got[i] == want[i])
            continue;
        ++v.wrongPages;
        if (i >= known_defect.size() || !known_defect[i])
            ++v.unexplained;
    }
    return v;
}

void
Tally::note(bool status_ok, const PageVerdict &v, std::size_t pages)
{
    ++attempted;
    checkedPages += pages;
    if (!status_ok) {
        ++badStatus;
        return;
    }
    if (v.wrongPages == 0)
        return;
    ++wrongResults;
    wrongPages += v.wrongPages;
    if (v.unexplained == 0)
        ++predictedWrong;
}

TraceWindow::TraceWindow(bool traced)
    : traced_(traced), events0_(parabit::ssd::EventEngine::processExecuted())
{
    auto &reg = parabit::obs::MetricsRegistry::global();
    reg.setEnabled(traced);
    if (!traced)
        return;
    reg.zero();
    parabit::obs::Profiler &p = parabit::obs::Profiler::enableGlobal();
    p.reset();
    (void)p.totals(); // start the clock now, not at the first scope
}

TraceWindow::~TraceWindow()
{
    parabit::obs::Profiler::disableGlobal();
    parabit::obs::MetricsRegistry::global().setEnabled(false);
}

std::uint64_t
TraceWindow::counter(const std::string &name) const
{
    const auto &c = parabit::obs::MetricsRegistry::global().counters();
    const auto it = c.find(name);
    return traced_ && it != c.end() ? it->second : 0;
}

const parabit::Histogram *
TraceWindow::histogram(const std::string &name) const
{
    const auto &h = parabit::obs::MetricsRegistry::global().histograms();
    const auto it = h.find(name);
    return traced_ && it != h.end() ? &it->second : nullptr;
}

ProfTotals
TraceWindow::profile() const
{
    parabit::obs::Profiler *p = parabit::obs::Profiler::global();
    return p ? p->totals() : ProfTotals{};
}

std::uint64_t
TraceWindow::events() const
{
    return parabit::ssd::EventEngine::processExecuted() - events0_;
}

void
addProfileLayers(const TraceWindow &tw, PassOut &out)
{
    using parabit::obs::Subsystem;
    const ProfTotals p = tw.profile();
    const auto s = [&](Subsystem k) {
        return p.seconds[static_cast<std::size_t>(k)];
    };
    const double events = static_cast<double>(tw.events());
    out.layer["ssd.event_engine.events"] = events;
    out.layer["ssd.event_engine.self_s"] = s(Subsystem::kEngine);
    out.layer["ssd.event_engine.ns_per_event"] =
        events > 0 ? 1e9 * s(Subsystem::kEngine) / events : 0.0;
    out.layer["ssd.sched.self_s"] = s(Subsystem::kSched);
    out.layer["ssd.ftl.self_s"] = s(Subsystem::kFtl);
    out.layer["flash.self_s"] = s(Subsystem::kFlashArray);
    out.layer["obs.self_s"] = s(Subsystem::kObs);
    // "other" is every stretch outside a simulator PROFILE_SCOPE; the
    // benchmark's own oracle/payload work (bench.own_s) is taken out so
    // the rest is simulator code without a scope.  Approximate: the
    // profiler reads wall time, bench.own_s is CPU time.
    out.layer["parabit.controller.unattributed_self_s"] = std::max(
        0.0, s(Subsystem::kOther) - out.layer["bench.own_s"]);
    out.sim["events"] = events;
}

} // namespace perfbench
