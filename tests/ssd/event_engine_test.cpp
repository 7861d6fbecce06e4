/**
 * @file
 * Discrete-event engine tests: ordering, determinism, time monotonicity,
 * reuse across runs.
 */

#include <gtest/gtest.h>

#include "ssd/event_engine.hpp"

namespace parabit::ssd {
namespace {

using Event = EventEngine::Event;

/** Handler that records each event's index in execution order. */
struct Recorder
{
    std::vector<std::uint64_t> order;

    void operator()(const Event &ev) { order.push_back(ev.index); }
};

TEST(EventEngine, StartsAtZero)
{
    EventEngine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_FALSE(e.runOne([](const Event &) {}));
}

TEST(EventEngine, ExecutesInTimeOrder)
{
    EventEngine e;
    Recorder rec;
    e.schedule(30, 0, 0, 3);
    e.schedule(10, 0, 0, 1);
    e.schedule(20, 0, 0, 2);
    e.run(rec);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(EventEngine, TiesBreakByInsertionOrder)
{
    EventEngine e;
    Recorder rec;
    for (std::uint64_t i = 0; i < 5; ++i)
        e.schedule(100, 0, 0, i);
    e.run(rec);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventEngine, EventsCanScheduleEvents)
{
    EventEngine e;
    int fired = 0;
    e.schedule(10, 0, 0, 0);
    const Tick end = e.run([&](const Event &ev) {
        ++fired;
        if (ev.kind == 0)
            e.schedule(e.now() + 5, 1, 0, 0);
    });
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(end, 15u);
}

TEST(EventEngine, PayloadRoundTrips)
{
    EventEngine e;
    e.schedule(7, 3, 1031, 1ull << 40);
    Event got;
    EXPECT_TRUE(e.runOne([&](const Event &ev) { got = ev; }));
    EXPECT_EQ(got.when, 7u);
    EXPECT_EQ(got.kind, 3u);
    EXPECT_EQ(got.resource, 1031u);
    EXPECT_EQ(got.index, 1ull << 40);
}

TEST(EventEngine, PastSchedulingDies)
{
    EventEngine e;
    e.schedule(100, 0, 0, 0);
    e.runOne([](const Event &) {});
    EXPECT_DEATH(e.schedule(50, 0, 0, 0), "past");
}

TEST(EventEngine, RunOneAdvancesStepwise)
{
    EventEngine e;
    const auto ignore = [](const Event &) {};
    e.schedule(1, 0, 0, 0);
    e.schedule(2, 0, 0, 0);
    EXPECT_TRUE(e.runOne(ignore));
    EXPECT_EQ(e.now(), 1u);
    EXPECT_TRUE(e.runOne(ignore));
    EXPECT_EQ(e.now(), 2u);
    EXPECT_FALSE(e.runOne(ignore));
}

TEST(EventEngine, ResetRestartsTheClockAndDropsPendingEvents)
{
    EventEngine e;
    Recorder rec;
    e.schedule(50, 0, 0, 1);
    e.schedule(60, 0, 0, 2);
    e.runOne(rec);
    e.reset();
    EXPECT_EQ(e.now(), 0u);
    // Earlier than the old clock: legal again after the reset.
    e.schedule(5, 0, 0, 3);
    e.run(rec);
    EXPECT_EQ(rec.order, (std::vector<std::uint64_t>{1, 3}));
    EXPECT_EQ(e.now(), 5u);
}

TEST(EventEngine, ProcessCounterCountsExecutedEventsOnly)
{
    const std::uint64_t before = EventEngine::processExecuted();
    EventEngine e;
    e.schedule(1, 0, 0, 0);
    e.schedule(2, 0, 0, 0);
    e.runOne([](const Event &) {});
    e.reset(); // the dropped event never executes
    EXPECT_EQ(EventEngine::processExecuted() - before, 1u);
}

} // namespace
} // namespace parabit::ssd
