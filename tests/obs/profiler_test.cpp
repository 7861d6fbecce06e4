/**
 * @file
 * Unit tests for the self-profiler: self-time attribution across
 * nested scopes, the disabled fast path, the PROFILE_SCOPE macro, and
 * trace emission billed to obs.
 *
 * Wall-clock durations are nondeterministic, so assertions are about
 * *structure* — entry counts, which buckets received time, totals
 * being finite and non-negative — never about specific durations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "flash/timing.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "ssd/sched/scheduler.hpp"

namespace parabit::obs {
namespace {

/** Enables the global profiler for the test's scope. */
class ProfilerScope
{
  public:
    ProfilerScope() { Profiler::enableGlobal().reset(); }
    ~ProfilerScope() { Profiler::disableGlobal(); }
};

TEST(Profiler, DisabledGlobalIsNull)
{
    EXPECT_EQ(Profiler::global(), nullptr);
    { PROFILE_SCOPE(Subsystem::kSched); } // must be a safe no-op
}

TEST(Profiler, CountsEntriesPerSubsystem)
{
    ProfilerScope scope;
    for (int i = 0; i < 3; ++i) {
        PROFILE_SCOPE(Subsystem::kEngine);
    }
    {
        PROFILE_SCOPE(Subsystem::kFtl);
    }
    const Profiler::Totals t = Profiler::global()->totals();
    EXPECT_EQ(t.entries[static_cast<std::size_t>(Subsystem::kEngine)], 3u);
    EXPECT_EQ(t.entries[static_cast<std::size_t>(Subsystem::kFtl)], 1u);
    EXPECT_EQ(t.entries[static_cast<std::size_t>(Subsystem::kSched)], 0u);
}

TEST(Profiler, SelfTimeNeverNegativeAndSumsFinite)
{
    ProfilerScope scope;
    {
        PROFILE_SCOPE(Subsystem::kSched);
        {
            // Nested: the inner stretch charges kFlashArray, not
            // kSched — self-time, not inclusive time.
            PROFILE_SCOPE(Subsystem::kFlashArray);
            volatile int sink = 0;
            for (int i = 0; i < 1000; ++i)
                sink = sink + i;
        }
    }
    const Profiler::Totals t = Profiler::global()->totals();
    for (std::size_t s = 0; s < kNumSubsystems; ++s)
        EXPECT_GE(t.seconds[s], 0.0) << subsystemName(
            static_cast<Subsystem>(s));
    EXPECT_TRUE(std::isfinite(t.totalSeconds()));
    EXPECT_EQ(t.entries[static_cast<std::size_t>(Subsystem::kSched)], 1u);
    EXPECT_EQ(
        t.entries[static_cast<std::size_t>(Subsystem::kFlashArray)], 1u);
}

TEST(Profiler, ResetClearsTotals)
{
    ProfilerScope scope;
    {
        PROFILE_SCOPE(Subsystem::kObs);
    }
    Profiler::global()->reset();
    const Profiler::Totals t = Profiler::global()->totals();
    for (std::size_t s = 0; s < kNumSubsystems; ++s) {
        EXPECT_EQ(t.entries[s], 0u);
        EXPECT_EQ(t.seconds[s], 0.0);
    }
}

TEST(Profiler, TracedDrainChargesObs)
{
    // The span and flow-step events a traced drain emits, and the
    // argument strings the scheduler builds for them, are obs time.
    TraceSink::enableGlobal();
    ProfilerScope scope;
    ssd::sched::TransactionScheduler s(flash::FlashGeometry::tiny(),
                                       flash::FlashTiming{},
                                       ssd::sched::SchedConfig{});
    s.setTraceSink(TraceSink::global());
    ssd::sched::DeviceTransaction tx;
    tx.arrayTicks = 50;
    tx.xferOutTicks = 30;
    s.submit(tx);
    s.drain();
    const Profiler::Totals t = Profiler::global()->totals();
    TraceSink::disableGlobal();
    const auto obs = static_cast<std::size_t>(Subsystem::kObs);
    EXPECT_GT(t.entries[obs], 0u);
    EXPECT_GT(t.seconds[obs], 0.0);
    EXPECT_GT(t.entries[static_cast<std::size_t>(Subsystem::kSched)], 0u);
}

TEST(Profiler, SubsystemNamesAreStable)
{
    EXPECT_STREQ(subsystemName(Subsystem::kEngine), "engine");
    EXPECT_STREQ(subsystemName(Subsystem::kSched), "sched");
    EXPECT_STREQ(subsystemName(Subsystem::kFlashArray), "flash_array");
    EXPECT_STREQ(subsystemName(Subsystem::kFtl), "ftl");
    EXPECT_STREQ(subsystemName(Subsystem::kObs), "obs");
    EXPECT_STREQ(subsystemName(Subsystem::kOther), "other");
}

} // namespace
} // namespace parabit::obs
