/**
 * @file
 * Discrete-event simulation core.
 *
 * A minimal, deterministic event engine: events are (tick, sequence)
 * ordered callbacks.  Ties on the tick are broken by insertion order so
 * repeated runs are bit-identical.
 */

#ifndef PARABIT_SSD_EVENT_ENGINE_HPP_
#define PARABIT_SSD_EVENT_ENGINE_HPP_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace parabit::ssd {

/** Deterministic discrete-event engine; see file comment. */
class EventEngine
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb at absolute time @p when (>= now). */
    void schedule(Tick when, Callback cb);

    /** Execute the earliest event.  @return false if none pending. */
    bool runOne();

    /** Run until the queue drains; @return the final time. */
    Tick run();

    /** Events executed across every engine in this process (engines
     *  are per-drain throwaways); bench_simspeed's events/sec
     *  denominator.  Monotonic, never reset. */
    static std::uint64_t processExecuted();

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_EVENT_ENGINE_HPP_
