/**
 * @file
 * Discrete-event engine tests: ordering, determinism, time monotonicity.
 */

#include <gtest/gtest.h>

#include "ssd/event_engine.hpp"

namespace parabit::ssd {
namespace {

TEST(EventEngine, StartsAtZero)
{
    EventEngine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_FALSE(e.runOne());
}

TEST(EventEngine, ExecutesInTimeOrder)
{
    EventEngine e;
    std::vector<int> order;
    e.schedule(30, [&] { order.push_back(3); });
    e.schedule(10, [&] { order.push_back(1); });
    e.schedule(20, [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(EventEngine, TiesBreakByInsertionOrder)
{
    EventEngine e;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        e.schedule(100, [&order, i] { order.push_back(i); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventEngine, EventsCanScheduleEvents)
{
    EventEngine e;
    int fired = 0;
    e.schedule(10, [&] {
        ++fired;
        e.schedule(e.now() + 5, [&] { ++fired; });
    });
    const Tick end = e.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(end, 15u);
}

TEST(EventEngine, PastSchedulingDies)
{
    EventEngine e;
    e.schedule(100, [] {});
    e.runOne();
    EXPECT_DEATH(e.schedule(50, [] {}), "past");
}

TEST(EventEngine, RunOneAdvancesStepwise)
{
    EventEngine e;
    e.schedule(1, [] {});
    e.schedule(2, [] {});
    EXPECT_TRUE(e.runOne());
    EXPECT_EQ(e.now(), 1u);
    EXPECT_TRUE(e.runOne());
    EXPECT_EQ(e.now(), 2u);
    EXPECT_FALSE(e.runOne());
}

} // namespace
} // namespace parabit::ssd
