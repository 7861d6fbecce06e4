/**
 * @file
 * Simulator self-benchmark: how fast does the simulator itself run?
 *
 * Every other bench measures the *simulated device*; this one measures
 * the *simulator* — host events processed per wall second, retired NVMe
 * commands per wall second, peak RSS, and the self-profiler's
 * attribution of CPU time to subsystems (event engine, scheduler,
 * flash array, FTL, observability).  The workload is a fixed seeded
 * mix of reads, writes, XOR formulas and flushes through the full
 * HostInterface/controller/FTL/timing stack, so a regression anywhere
 * in the hot path shows up here.
 *
 *   bench_simspeed [--json FILE] [--check BASELINE] [--min-ratio F]
 *                  [--rounds N]
 *
 * `--check` compares this run's retired commands per second
 * (sim_ops_per_sec) against the baseline JSON (the committed
 * BENCH_simspeed.json) and exits nonzero when it falls below
 * min-ratio x baseline — the CI perf-regression gate.  Commands, not
 * engine events, are the unit of work, so a design that needs fewer
 * events per command does not look slower.  The default ratio is
 * deliberately loose (0.2): CI machines vary widely, and the gate
 * exists to catch order-of-magnitude slips, not 10% noise.
 *
 * A placement-scaling sweep then times one timing-only
 * writeMetaOperandPair at paper geometry (SsdConfig::paperSsd()) with
 * 1K, 16K and 64K pages, each on a fresh device, and reports the best
 * of three in thread CPU ns per page, so preemption on a shared machine
 * does not count.  Each is one scheduler batch of two programs per
 * page, so a drain whose cost grows faster than its batch (an
 * accidentally quadratic queue scan) shows as a rising per-page cost.
 * The run exits nonzero when the 64K cost per page exceeds
 * kMaxPlacementScaling x the 1K cost.  The 64K batch's transaction
 * records (tens of MB) outgrow the caches the 1K batch fits in, so the
 * ratio also reflects the cache hierarchy; on a 4-core Xeon a linear
 * drain measures 0.78-1.08 and a quadratic one 12-17.  The sweep runs
 * unprofiled, untraced and outside the metrics registry, after the
 * mix's artefacts are written.
 *
 * Observability: --metrics-out/--trace-out/--snapshots-out (see
 * bench/common/obs_args.hpp).  The trace produced here carries the
 * NVMe command flow events and is what CI feeds to parabit-trace for
 * flow-linkage validation.
 *
 * This bench reads std::chrono::steady_clock directly — benches are
 * exempt from the parabit-lint wall-clock rule; nothing here feeds
 * back into simulated state.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/common/obs_args.hpp"
#include "bench/common/report.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/event_engine.hpp"

namespace {

using namespace parabit;
using core::HostInterface;
using core::Mode;
using core::OpClass;
using core::ParaBitDevice;

constexpr std::uint16_t kQueues = 2;
constexpr std::uint16_t kDepth = 32;
constexpr int kWarmupRounds = 4;
constexpr int kDefaultRounds = 768;
constexpr std::uint64_t kPageSeed = 0x51335BEE;
/** Pages per placement in the scaling sweep (first and last are the
 *  gate's pair). */
constexpr std::array<std::uint32_t, 3> kPlacementPages = {1024, 16384,
                                                          65536};
/** Timings per sweep point; the fastest counts, so one slow run on a
 *  shared machine cannot trip the scaling gate. */
constexpr int kPlacementRepeats = 3;
/** Largest allowed 64K-over-1K cost per page of the sweep. */
constexpr double kMaxPlacementScaling = 1.5;

std::vector<BitVector>
pages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (int p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

/** One round of the fixed mix; @return commands retired by pump(). */
std::size_t
mixRound(HostInterface &host, int r)
{
    for (std::uint16_t q = 0; q < kQueues; ++q) {
        for (nvme::Lpn l = 0; l < 12; ++l)
            host.submitRead(q, (l + static_cast<nvme::Lpn>(r)) % 32);
        for (nvme::Lpn l = 0; l < 4; ++l)
            host.submitWrite(q, 32 + ((l + static_cast<nvme::Lpn>(r)) % 16));
    }
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(200, 4),
                                          nvme::OperandRef::logical(300, 4),
                                          flash::BitwiseOp::kXor});
    host.submitFormula(0, f);
    if (r % 8 == 7)
        host.submitFlush(1);
    const std::size_t retired = host.pump();
    for (std::uint16_t q = 0; q < kQueues; ++q)
        while (host.reap(q))
            ;
    return retired;
}

struct RunOut
{
    std::uint64_t events = 0;   ///< event-engine callbacks dispatched
    std::uint64_t commands = 0; ///< NVMe commands retired
    double wallSec = 0;
    obs::Profiler::Totals prof;
};

RunOut
run(int rounds, bench::ObsOptions &obs)
{
    using Clock = std::chrono::steady_clock;

    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, kPageSeed);
    for (nvme::Lpn l = 0; l < 48; ++l)
        dev.writeData(l, d);
    const auto x = pages(dev.ssd().config(), 4, kPageSeed + 1);
    const auto y = pages(dev.ssd().config(), 4, kPageSeed + 2);
    dev.writeData(200, x);
    dev.writeData(300, y);

    HostInterface host(dev, kQueues, kDepth, Mode::kReAllocate);

    // SLO smoke: exercised here so the metrics/snapshot artifacts the
    // bench can emit carry the obs.slo.* series.
    // The mix keeps queues deep, so command latency is dominated by
    // queue wait (seconds of simulated time); a 2 s target splits the
    // population instead of flagging everything.
    obs::SloConfig slo;
    slo.target = ticks::fromMs(2000);
    slo.objective = 0.99;
    slo.window = ticks::fromMs(500);
    host.setSlo(OpClass::kRead, slo);
    host.setSlo(OpClass::kFormula, slo);

    for (int r = 0; r < kWarmupRounds; ++r)
        (void)mixRound(host, r);

    obs::Profiler &prof = obs::Profiler::enableGlobal();
    prof.reset();
    const std::uint64_t events0 = ssd::EventEngine::processExecuted();
    const Clock::time_point t0 = Clock::now();

    RunOut out;
    for (int r = 0; r < rounds; ++r) {
        out.commands += mixRound(host, kWarmupRounds + r);
        if (obs.snapshotsWanted())
            obs.snapshots.record(dev.now());
    }

    out.wallSec = std::chrono::duration<double>(Clock::now() - t0).count();
    out.events = ssd::EventEngine::processExecuted() - events0;
    out.prof = prof.totals();
    obs::Profiler::disableGlobal();

    host.finalizeSlo();
    return out;
}

/** One point of the placement-scaling sweep. */
struct PlacementPoint
{
    std::uint32_t pages = 0;
    double cpuSec = 0;
    double nsPerPage = 0;
    bool ok = false; ///< every page placed
};

/** CPU time this thread has used, in seconds. */
double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** Best of kPlacementRepeats timings of one timing-only
 *  writeMetaOperandPair of @p pages pages at paper geometry, each on a
 *  fresh device (construction not timed). */
PlacementPoint
timePlacement(std::uint32_t pages)
{
    PlacementPoint p;
    p.pages = pages;
    p.ok = true;
    for (int i = 0; i < kPlacementRepeats; ++i) {
        ParaBitDevice dev(ssd::SsdConfig::paperSsd());
        const double t0 = threadCpuSec();
        p.ok = dev.writeMetaOperandPair(0, pages, pages) && p.ok;
        const double s = threadCpuSec() - t0;
        if (i == 0 || s < p.cpuSec)
            p.cpuSec = s;
    }
    p.nsPerPage = 1e9 * p.cpuSec / pages;
    return p;
}

/** Cost per page of the largest placement over the smallest. */
double
placementScaling(const std::vector<PlacementPoint> &pts)
{
    return pts.front().nsPerPage > 0
               ? pts.back().nsPerPage / pts.front().nsPerPage
               : 0.0;
}

std::size_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
        return static_cast<std::size_t>(ru.ru_maxrss); // bytes
#else
        return static_cast<std::size_t>(ru.ru_maxrss) * 1024; // KiB
#endif
    }
#endif
    return 0;
}

/** Pull the number after "key": from a baseline JSON (flat schema). */
double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

void
writeJson(const std::string &path, int rounds, const RunOut &r,
          double events_per_sec, double cmds_per_sec, std::size_t rss,
          const std::vector<PlacementPoint> &placement)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "bench_simspeed: cannot write " << path << "\n";
        return;
    }
    os << "{\n  \"schema_version\": 1,\n"
       << "  \"tool\": \"bench_simspeed\",\n"
       << "  \"config\": {\"rounds\": " << rounds
       << ", \"warmup_rounds\": " << kWarmupRounds
       << ", \"queues\": " << kQueues << ", \"depth\": " << kDepth
       << ", \"page_seed\": " << kPageSeed << "},\n"
       << "  \"events\": " << r.events << ",\n"
       << "  \"commands\": " << r.commands << ",\n"
       << "  \"wall_seconds\": " << r.wallSec << ",\n"
       << "  \"events_per_sec\": " << events_per_sec << ",\n"
       << "  \"sim_ops_per_sec\": " << cmds_per_sec << ",\n"
       << "  \"peak_rss_bytes\": " << rss << ",\n"
       << "  \"subsystems\": {";
    const double total = r.prof.totalSeconds();
    for (std::size_t s = 0; s < obs::kNumSubsystems; ++s) {
        os << (s ? ", " : "") << "\""
           << obs::subsystemName(static_cast<obs::Subsystem>(s))
           << "\": {\"seconds\": " << r.prof.seconds[s] << ", \"share\": "
           << (total > 0 ? r.prof.seconds[s] / total : 0.0) << "}";
    }
    os << "},\n"
       << "  \"placement_scaling\": {\"call\": \"writeMetaOperandPair\", "
          "\"config\": \"paperSsd\", \"points\": [";
    for (std::size_t i = 0; i < placement.size(); ++i) {
        os << (i ? ", " : "") << "{\"pages\": " << placement[i].pages
           << ", \"cpu_seconds\": " << placement[i].cpuSec
           << ", \"ns_per_page\": " << placement[i].nsPerPage << "}";
    }
    os << "], \"largest_over_smallest\": " << placementScaling(placement)
       << "}\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string baseline_path;
    double min_ratio = 0.2;
    int rounds = kDefaultRounds;
    bench::ObsOptions obs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--min-ratio" && i + 1 < argc) {
            min_ratio = std::strtod(argv[++i], nullptr);
        } else if (arg == "--rounds" && i + 1 < argc) {
            rounds = std::atoi(argv[++i]);
        } else if (obs.consume(argc, argv, i)) {
            continue;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json FILE] [--check BASELINE]"
                         " [--min-ratio F] [--rounds N]\n"
                      << bench::ObsOptions::help() << "\n";
            return 2;
        }
    }
    // Before the device exists: the scheduler binds its trace sink and
    // the metric handles bind their registry slots at construction.
    obs.enableMetrics();
    if (obs.traceWanted())
        obs::TraceSink::enableGlobal();

    bench::banner("Simulator self-profile: events/sec, CPU attribution");

    const RunOut r = run(rounds, obs);
    const double events_per_sec =
        r.wallSec > 0 ? static_cast<double>(r.events) / r.wallSec : 0.0;
    const double cmds_per_sec =
        r.wallSec > 0 ? static_cast<double>(r.commands) / r.wallSec : 0.0;
    // Before the sweep, whose paper-geometry batches would dominate it.
    const std::size_t rss = peakRssBytes();
    // Write the mix's artefacts, then switch observability off: the
    // sweep's devices would write the mix's channel/die trace tracks
    // and registry slots.
    const bool obs_ok = obs.finish();
    obs::TraceSink::disableGlobal();
    obs::MetricsRegistry::global().setEnabled(false);
    std::vector<PlacementPoint> placement;
    for (const std::uint32_t pages : kPlacementPages)
        placement.push_back(timePlacement(pages));

    bench::section("throughput");
    std::printf("  rounds                          %12d\n", rounds);
    std::printf("  engine events dispatched        %12llu\n",
                static_cast<unsigned long long>(r.events));
    std::printf("  commands retired                %12llu\n",
                static_cast<unsigned long long>(r.commands));
    std::printf("  wall seconds                    %12.3f\n", r.wallSec);
    std::printf("  events / sec                    %12.0f\n",
                events_per_sec);
    std::printf("  simulated ops / sec             %12.0f\n", cmds_per_sec);
    std::printf("  peak RSS (MiB)                  %12.1f\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));

    bench::section("self-time by subsystem");
    const double total = r.prof.totalSeconds();
    for (std::size_t s = 0; s < obs::kNumSubsystems; ++s) {
        std::printf("  %-14s %10.4f s  %6.1f %%  %12llu entries\n",
                    obs::subsystemName(static_cast<obs::Subsystem>(s)),
                    r.prof.seconds[s],
                    total > 0 ? 100.0 * r.prof.seconds[s] / total : 0.0,
                    static_cast<unsigned long long>(r.prof.entries[s]));
    }
    bench::note("self time: nested scopes charge the innermost subsystem; "
                "\"other\" is everything outside a PROFILE_SCOPE (host "
                "loop, NVMe encode/decode, bitvector math)");

    bench::section("placement scaling (paperSsd, writeMetaOperandPair)");
    for (const PlacementPoint &p : placement) {
        std::printf("  %6u pages  %10.4f s cpu  %8.0f ns/page%s\n", p.pages,
                    p.cpuSec, p.nsPerPage, p.ok ? "" : "  (placement failed)");
    }
    const double scaling = placementScaling(placement);
    const std::string ratio_label =
        std::to_string(placement.back().pages) + " / " +
        std::to_string(placement.front().pages) + " pages per-page cost";
    std::printf("  %-32s%12.2f\n", ratio_label.c_str(), scaling);
    std::printf("  maximum allowed                 %12.2f\n",
                kMaxPlacementScaling);

    if (!json_path.empty())
        writeJson(json_path, rounds, r, events_per_sec, cmds_per_sec, rss,
                  placement);

    int rc = 0;
    for (const PlacementPoint &p : placement) {
        if (!p.ok) {
            std::printf("  FAILED: placement of %u pages\n", p.pages);
            rc = 1;
        }
    }
    if (scaling > kMaxPlacementScaling) {
        std::printf("  REGRESSION: per-page cost grows with the batch\n");
        rc = 1;
    }
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        std::stringstream ss;
        ss << in.rdbuf();
        const double base = jsonNumber(ss.str(), "sim_ops_per_sec");
        bench::section("regression gate");
        if (!in || base <= 0) {
            std::printf("  cannot read baseline %s\n",
                        baseline_path.c_str());
            rc = 1;
        } else {
            const double ratio = cmds_per_sec / base;
            std::printf("  baseline simulated ops/sec      %12.0f\n", base);
            std::printf("  this run / baseline             %12.2f\n",
                        ratio);
            std::printf("  minimum allowed ratio           %12.2f\n",
                        min_ratio);
            if (ratio < min_ratio) {
                std::printf("  REGRESSION: below gate\n");
                rc = 1;
            } else {
                std::printf("  ok\n");
            }
        }
    }

    return obs_ok && rc == 0 ? 0 : (rc ? rc : 2);
}
