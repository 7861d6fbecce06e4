/**
 * @file
 * Unit tests for periodic registry snapshots: frozen column sets and
 * CSV/JSON rendering.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace parabit::obs {
namespace {

/** Enables the global registry for the test's scope, then wipes it. */
class RegistryScope
{
  public:
    RegistryScope() { MetricsRegistry::global().setEnabled(true); }

    ~RegistryScope()
    {
        MetricsRegistry::global().setEnabled(false);
        MetricsRegistry::global().clear();
    }
};

TEST(Snapshot, RecordsCountersAndGauges)
{
    RegistryScope scope;
    Counter c("snap.count");
    Gauge g("snap.gauge");
    SnapshotSeries series;
    c += 3;
    g.set(1.5);
    series.record(100);
    c += 2;
    g.set(2.5);
    series.record(200);
    ASSERT_EQ(series.size(), 2u);
    ASSERT_EQ(series.columns().size(), 2u);
    EXPECT_EQ(series.columns()[0], "snap.count");
    EXPECT_EQ(series.columns()[1], "snap.gauge");

    const std::string csv = series.toCsv();
    EXPECT_NE(csv.find("tick,snap.count,snap.gauge"), std::string::npos);
    EXPECT_NE(csv.find("100,3,1.5"), std::string::npos);
    EXPECT_NE(csv.find("200,5,2.5"), std::string::npos);

    const std::string json = series.toJson();
    EXPECT_NE(json.find("\"columns\": [\"snap.count\", \"snap.gauge\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"tick\": 200"), std::string::npos);
}

TEST(Snapshot, ColumnsFreezeAtFirstRecord)
{
    RegistryScope scope;
    Counter c("snap.first");
    ++c;
    SnapshotSeries series;
    series.record(10);
    // An instrument registered after the first record() is ignored —
    // every row keeps the same width.
    Counter late("snap.late");
    ++late;
    series.record(20);
    ASSERT_EQ(series.columns().size(), 1u);
    EXPECT_EQ(series.columns()[0], "snap.first");
    EXPECT_EQ(series.size(), 2u);
}

TEST(Snapshot, CsvEscapesHostileColumnNames)
{
    RegistryScope scope;
    // Metric names with CSV metacharacters are illegal by the lint
    // naming rule, but the renderer must not corrupt the file even if
    // one slips through (RFC 4180: quote, double embedded quotes).
    Counter comma("snap.evil,name");
    Counter quote("snap.evil\"name");
    ++comma;
    ++quote;
    SnapshotSeries series;
    series.record(10);
    const std::string csv = series.toCsv();
    EXPECT_NE(csv.find("\"snap.evil,name\""), std::string::npos);
    EXPECT_NE(csv.find("\"snap.evil\"\"name\""), std::string::npos);
    // Header row still has exactly tick + 2 columns on the first line
    // (registry order is lexicographic; '"' sorts before ',').
    const std::string header = csv.substr(0, csv.find('\n'));
    EXPECT_EQ(header, "tick,\"snap.evil\"\"name\",\"snap.evil,name\"");
}

TEST(Snapshot, SameStreamRendersByteIdenticalCsv)
{
    std::string first, second;
    for (std::string *out : {&first, &second}) {
        RegistryScope scope;
        Counter c("snap.det");
        Gauge g("snap.det_gauge");
        SnapshotSeries series;
        for (Tick t = 100; t <= 500; t += 100) {
            c += 7;
            g.set(static_cast<double>(t) * 0.25);
            series.record(t);
        }
        *out = series.toCsv();
    }
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace parabit::obs
