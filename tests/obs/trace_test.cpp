/**
 * @file
 * Unit tests for the trace sink: track/metadata bookkeeping, integer
 * timestamp rendering, async pairing, and — the property the whole
 * design leans on — byte-identical traces across two runs of the same
 * seed and config.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "obs/trace.hpp"
#include "ssd/ssd.hpp"

namespace parabit::obs {
namespace {

TEST(TraceSink, TracksAssignStableIds)
{
    TraceSink sink;
    const TrackId a = sink.track("channels", "channel 0");
    const TrackId b = sink.track("channels", "channel 1");
    const TrackId c = sink.track("dies", "ch0 chip0 die0 plane0");
    // Same process shares a pid; re-asking returns the same track.
    EXPECT_EQ(a.pid, b.pid);
    EXPECT_NE(a.tid, b.tid);
    EXPECT_NE(a.pid, c.pid);
    const TrackId a2 = sink.track("channels", "channel 0");
    EXPECT_EQ(a.pid, a2.pid);
    EXPECT_EQ(a.tid, a2.tid);
    EXPECT_EQ(sink.trackCount(), 3u);
    // Metadata: 2 process_name + 3 thread_name events.
    EXPECT_EQ(sink.eventCount(), 5u);
}

TEST(TraceSink, SpanRendersIntegerMicroseconds)
{
    TraceSink sink;
    const TrackId t = sink.track("channels", "channel 0");
    // 2.5 us and 0.75 us in picoseconds: fractional microseconds must
    // render as exactly three decimals, integral ones bare.
    sink.span(t, "xfer_out", 2500000, 3250000);
    sink.span(t, "cmd", 4000000, 5000000);
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"ts\":2.500,\"dur\":0.750"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":4,\"dur\":1,"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"xfer_out\""), std::string::npos);
}

TEST(TraceSink, SpanArgsQuotedAndBare)
{
    TraceSink sink;
    const TrackId t = sink.track("dies", "d0");
    sink.span(t, "array", 0, 1000000,
              {{"tx", "17", false}, {"class", "read", true}});
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"args\":{\"tx\":17,\"class\":\"read\"}"),
              std::string::npos);
}

TEST(TraceSink, AsyncPairCarriesCatIdName)
{
    TraceSink sink;
    const TrackId t = sink.track("host", "queue 0");
    sink.asyncBegin(t, "nvme", "read", 3, 1000000,
                    {{"status", "0", false}});
    sink.asyncEnd(t, "nvme", "read", 3, 9000000);
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"ph\":\"b\",\"pid\":1,\"tid\":1,\"ts\":1,"
                        "\"cat\":\"nvme\",\"id\":\"3\",\"name\":\"read\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

TEST(TraceSink, FlowEventsRenderStepAndTerminus)
{
    TraceSink sink;
    const TrackId host = sink.track("host", "queue 0");
    const TrackId die = sink.track("dies", "d0");
    sink.flowStart(host, kNvmeFlowCat, kNvmeFlowName, 7, 1000000);
    sink.flowStep(die, kNvmeFlowCat, kNvmeFlowName, 7, 2000000);
    sink.flowEnd(host, kNvmeFlowCat, kNvmeFlowName, 7, 3000000);
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    // All three carry the shared cat/id the viewer stitches on, and the
    // step lands on the die track's coordinates.
    EXPECT_NE(json.find("\"cat\":\"nvme_flow\",\"id\":\"7\","
                        "\"name\":\"nvme_cmd\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\",\"pid\":2,\"tid\":2,\"ts\":2,"),
              std::string::npos);
}

TEST(TraceSink, MetadataNamesProcessesAndThreads)
{
    TraceSink sink;
    sink.track("channels", "channel 2");
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                        "\"name\":\"process_name\",\"args\":{\"name\":"
                        "\"channels\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"thread_name\",\"args\":{\"name\":"
                        "\"channel 2\"}"),
              std::string::npos);
}

TEST(TraceSink, ClearDropsEverything)
{
    TraceSink sink;
    const TrackId t = sink.track("host", "q");
    sink.span(t, "s", 0, 1);
    sink.clear();
    EXPECT_EQ(sink.eventCount(), 0u);
    EXPECT_EQ(sink.trackCount(), 0u);
    EXPECT_EQ(sink.toJson(), "{\"traceEvents\":[\n\n]}\n");
}

/** One deterministic device workload traced through the global sink. */
std::string
tracedWorkload()
{
    TraceSink &sink = TraceSink::enableGlobal();
    sink.clear();
    std::string out;
    {
        ssd::SsdDevice dev(ssd::SsdConfig::tiny());
        const std::vector<const BitVector *> data(8, nullptr);
        Tick wrote = 0;
        dev.writePages(0, data, wrote);
        dev.readPages(0, 8, nullptr, wrote);
        out = sink.toJson();
    }
    TraceSink::disableGlobal();
    return out;
}

TEST(TraceSink, SameSeedSameConfigIsByteIdentical)
{
    const std::string first = tracedWorkload();
    const std::string second = tracedWorkload();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // Sanity: the trace actually contains scheduler spans on both the
    // channel and die track families.
    EXPECT_NE(first.find("\"channels\""), std::string::npos);
    EXPECT_NE(first.find("\"dies\""), std::string::npos);
    EXPECT_NE(first.find("\"name\":\"array\""), std::string::npos);
}

} // namespace
} // namespace parabit::obs
