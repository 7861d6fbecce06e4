/**
 * @file
 * Discrete-event simulation core.
 *
 * A minimal, deterministic event engine over plain-data events: each
 * event is a (tick, sequence) key plus a small payload — kind, resource,
 * index — that only its owner interprets.  Ties on the tick are broken
 * by insertion order so repeated runs are bit-identical.  Events carry
 * no callback: run() hands each one to the owner's handler, so once the
 * heap has grown, scheduling allocates nothing, and reset() lets one
 * engine serve run after run.
 */

#ifndef PARABIT_SSD_EVENT_ENGINE_HPP_
#define PARABIT_SSD_EVENT_ENGINE_HPP_

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace parabit::ssd {

/** Deterministic discrete-event engine; see file comment. */
class EventEngine
{
  public:
    /** One event; the payload fields mean whatever the owner says. */
    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint64_t index = 0;
        std::uint32_t resource = 0;
        std::uint8_t kind = 0;
    };

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule an event at absolute time @p when (>= now). */
    void schedule(Tick when, std::uint8_t kind, std::uint32_t resource,
                  std::uint64_t index);

    /** Hand the earliest event to @p handle.  @return false if none
     *  pending. */
    template <class Handler>
    bool
    runOne(Handler &&handle)
    {
        Event ev;
        if (!pop(ev))
            return false;
        handle(ev);
        return true;
    }

    /** Run until the queue drains, events @p handle schedules
     *  included; @return the final time. */
    template <class Handler>
    Tick
    run(Handler &&handle)
    {
        while (runOne(handle)) {
        }
        return now_;
    }

    /** Drop pending events and restart the clock at zero; the heap
     *  keeps its capacity. */
    void reset();

    /** Events executed across every engine in this process;
     *  bench_simspeed's events/sec denominator.  Monotonic: reset()
     *  does not touch it. */
    static std::uint64_t processExecuted();

  private:
    /** Move the earliest event into @p ev and advance the clock to it. */
    bool pop(Event &ev);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::vector<Event> heap_; ///< min-heap on (when, seq)
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_EVENT_ENGINE_HPP_
