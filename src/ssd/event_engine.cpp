#include "ssd/event_engine.hpp"

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace parabit::ssd {

namespace {

/** Events executed by every engine this process ever ran; the
 *  denominator of bench_simspeed's events/sec.  Engines are created
 *  per drain, so the counter lives outside any instance. */
std::uint64_t g_executed = 0;

} // namespace

std::uint64_t
EventEngine::processExecuted()
{
    return g_executed;
}

void
EventEngine::schedule(Tick when, Callback cb)
{
    if (when < now_)
        panic("EventEngine::schedule: event in the past");
    queue_.push(Event{when, nextSeq_++, std::move(cb)});
}

bool
EventEngine::runOne()
{
    if (queue_.empty())
        return false;
    Event ev;
    {
        // Engine self-time is the queue discipline only; the callback
        // runs outside the scope so its time lands on the subsystem
        // that scheduled it (or the enclosing scope).
        PROFILE_SCOPE(obs::Subsystem::kEngine);
        // priority_queue::top() is const; move out via const_cast as
        // the element is popped immediately after (standard idiom).
        ev = std::move(const_cast<Event &>(queue_.top()));
        queue_.pop();
        now_ = ev.when;
        ++g_executed;
    }
    ev.cb();
    return true;
}

Tick
EventEngine::run()
{
    while (runOne()) {
    }
    return now_;
}

} // namespace parabit::ssd
