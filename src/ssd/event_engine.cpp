#include "ssd/event_engine.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace parabit::ssd {

namespace {

/** Events executed by every engine this process ever ran; the
 *  denominator of bench_simspeed's events/sec. */
std::uint64_t g_executed = 0;

/** Heap order: the earliest (when, seq) on top. */
bool
later(const EventEngine::Event &a, const EventEngine::Event &b)
{
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
}

} // namespace

std::uint64_t
EventEngine::processExecuted()
{
    return g_executed;
}

void
EventEngine::schedule(Tick when, std::uint8_t kind, std::uint32_t resource,
                      std::uint64_t index)
{
    if (when < now_)
        panic("EventEngine::schedule: event in the past");
    heap_.push_back(Event{when, nextSeq_++, index, resource, kind});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

bool
EventEngine::pop(Event &ev)
{
    if (heap_.empty())
        return false;
    // Engine self-time is the queue discipline only; the handler runs
    // outside the scope so its time lands on the subsystem that owns
    // the event (or the enclosing scope).
    PROFILE_SCOPE(obs::Subsystem::kEngine);
    std::pop_heap(heap_.begin(), heap_.end(), later);
    ev = heap_.back();
    heap_.pop_back();
    now_ = ev.when;
    ++g_executed;
    return true;
}

void
EventEngine::reset()
{
    heap_.clear();
    now_ = 0;
    nextSeq_ = 0;
}

} // namespace parabit::ssd
