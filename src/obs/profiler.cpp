#include "obs/profiler.hpp"

// The one sanctioned wall-clock read in src/ (see file comment in the
// header): the profiler measures the simulator itself, and the lint
// nondeterminism rule exempts exactly this translation unit.
#include <chrono>
#include <memory>

namespace parabit::obs {

namespace {

std::unique_ptr<Profiler> g_profiler;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
subsystemName(Subsystem s)
{
    switch (s) {
      case Subsystem::kEngine: return "engine";
      case Subsystem::kSched: return "sched";
      case Subsystem::kFlashArray: return "flash_array";
      case Subsystem::kFtl: return "ftl";
      case Subsystem::kObs: return "obs";
      case Subsystem::kOther: return "other";
    }
    return "?";
}

Profiler *Profiler::active_ = nullptr;

Profiler &
Profiler::enableGlobal()
{
    if (!g_profiler)
        g_profiler = std::make_unique<Profiler>();
    active_ = g_profiler.get();
    return *g_profiler;
}

void
Profiler::disableGlobal()
{
    active_ = nullptr;
    g_profiler.reset();
}

Subsystem
Profiler::top(std::size_t below) const
{
    return stack_.size() > below ? stack_[stack_.size() - 1 - below]
                                 : Subsystem::kOther;
}

void
Profiler::charge(double now)
{
    if (stamped_)
        totals_.seconds[static_cast<std::size_t>(top())] += now - lastStamp_;
    lastStamp_ = now;
    stamped_ = true;
}

// A scope that leaves the top subsystem as it was moves no time between
// buckets, so enter and leave read the clock only when the top changes.

void
Profiler::enter(Subsystem s)
{
    if (!stamped_ || s != top())
        charge(nowSeconds());
    ++totals_.entries[static_cast<std::size_t>(s)];
    stack_.push_back(s);
}

void
Profiler::leave()
{
    if (!stamped_ || top(1) != top())
        charge(nowSeconds());
    if (!stack_.empty())
        stack_.pop_back();
}

Profiler::Totals
Profiler::totals()
{
    charge(nowSeconds());
    return totals_;
}

void
Profiler::reset()
{
    totals_ = Totals{};
    stack_.clear();
    stamped_ = false;
}

} // namespace parabit::obs
