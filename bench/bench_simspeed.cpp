/**
 * @file
 * Simulator self-benchmark: how fast does the simulator itself run?
 *
 * Every other bench measures the *simulated device*; this one measures
 * the *simulator* — retired NVMe commands and scheduler transactions
 * per wall second, event-engine events per wall second, peak RSS, and
 * the self-profiler's attribution of CPU time to subsystems (event
 * engine, scheduler, flash array, FTL, observability).  The mix runs
 * the default fcfs policy, which books every transaction at submit
 * without the event engine, so its events/sec reads 0; transactions
 * per second is the scheduler's rate.  The workload is a fixed seeded
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
 * 1K, 16K, 64K and 256K pages, each on a fresh device, and reports the
 * best of three in thread CPU ns per page, so preemption on a shared
 * machine does not count.  Each is one scheduler batch of two programs
 * per page, so a batch whose cost grows faster than its size (an
 * accidentally quadratic queue scan) shows as a rising per-page cost.
 * The run exits nonzero when the 256K cost per page exceeds
 * kMaxPlacementScaling x the 1K cost.  The 256K batch's transaction
 * records (about 20 MB) outgrow the caches the 1K batch fits in, so
 * the ratio also reflects the cache hierarchy.  Before the sweep, one
 * more 256K placement, in a child process of its own, measures
 * peak-RSS growth per transaction, device state included, and the run
 * exits nonzero above kMaxPlacementBytesPerTx.  A formula-scaling pair
 * follows: one timing-only ParaBit XOR at paper geometry over 1 and 64
 * stripes of co-located operands (placed untimed, each on a device of
 * its own), the best of kFormulaRepeats alternating timings in thread
 * CPU ns per page op.  The controller books a formula's in-place senses
 * a stripe per scheduler submission, so a page op should cost the same
 * in a long formula as in a short one; the run exits nonzero when the
 * 64-stripe cost per page exceeds kMaxFormulaScaling x the 1-stripe
 * cost.  The page map's chunk hints serve both points: the 1-stripe
 * operands share one chunk, and the 64-stripe ones span 32 chunks
 * whose hints miss only when an operand enters a new chunk.  The
 * sweeps run unprofiled, untraced and outside the metrics registry,
 * after the mix's artefacts are written.
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
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
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
#include "ssd/ssd.hpp"

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
constexpr std::array<std::uint32_t, 4> kPlacementPages = {1024, 16384,
                                                          65536, 262144};
/** Timings per sweep point; the fastest counts, so one slow run on a
 *  shared machine cannot trip the scaling gate. */
constexpr int kPlacementRepeats = 3;
/** Largest allowed 256K-over-1K cost per page of the sweep. */
constexpr double kMaxPlacementScaling = 1.5;
/** Stripes per formula of the formula-scaling pair (the gate's pair). */
constexpr std::array<std::uint32_t, 2> kFormulaStripes = {1, 64};
/** Timings per formula point; the fastest counts. */
constexpr int kFormulaRepeats = 9;
/** Largest allowed 64-over-1-stripe cost per page op of the pair. */
constexpr double kMaxFormulaScaling = 1.5;
/**
 * Largest allowed peak-RSS growth per transaction of one 256K-page
 * placement (524,288 programs, one scheduler batch), device state
 * included.  On a 4-core Xeon VM (Release and default builds alike) it
 * reads 138.6-138.9 B with the scheduler's 40 B outcome record per
 * transaction and the placement's PhysOp list (44 B per transaction)
 * reserved to its size; it read 178-182 B while that list grew by
 * doubling, and 351-378 B when every FCFS transaction kept a 224 B
 * record.  Most of the rest is map entries and wordline records.
 * 260 B leaves room for a record of up to about 160 B, and a record
 * back near 224 B fails.
 */
constexpr double kMaxPlacementBytesPerTx = 260.0;

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
    std::uint64_t events = 0;       ///< event-engine events dispatched
    std::uint64_t transactions = 0; ///< scheduler transactions submitted
    std::uint64_t commands = 0;     ///< NVMe commands retired
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
    const std::uint64_t tx0 = dev.ssd().scheduler().stats().submitted;
    const Clock::time_point t0 = Clock::now();

    RunOut out;
    for (int r = 0; r < rounds; ++r) {
        out.commands += mixRound(host, kWarmupRounds + r);
        if (obs.snapshotsWanted())
            obs.snapshots.record(dev.now());
    }

    out.wallSec = std::chrono::duration<double>(Clock::now() - t0).count();
    out.events = ssd::EventEngine::processExecuted() - events0;
    out.transactions = dev.ssd().scheduler().stats().submitted - tx0;
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

/** The formula-scaling pair: the best of kFormulaRepeats timings of
 *  one timing-only ParaBit XOR over each kFormulaStripes count at paper
 *  geometry, each on a device of its own whose co-located operands were
 *  placed untimed.  The repetitions alternate between the points, so a
 *  slow stretch of host time cannot land on one point alone.  An op
 *  that is not OK marks its point failed. */
std::vector<PlacementPoint>
timeFormulas()
{
    const ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    std::vector<PlacementPoint> pts(kFormulaStripes.size());
    std::vector<std::unique_ptr<ParaBitDevice>> devs;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        pts[i].pages = kFormulaStripes[i] * cfg.geometry.planesTotal();
        devs.push_back(std::make_unique<ParaBitDevice>(cfg));
        pts[i].ok = devs[i]->writeMetaOperandPair(0, pts[i].pages,
                                                  pts[i].pages);
    }
    for (int rep = 0; rep < kFormulaRepeats; ++rep) {
        for (std::size_t i = 0; i < pts.size(); ++i) {
            PlacementPoint &p = pts[i];
            const double t0 = threadCpuSec();
            const core::ExecResult r = devs[i]->bitwise(
                flash::BitwiseOp::kXor, 0, p.pages, p.pages,
                Mode::kPreAllocated);
            const double s = threadCpuSec() - t0;
            p.ok = r.status == core::ExecStatus::kOk && p.ok;
            if (rep == 0 || s < p.cpuSec)
                p.cpuSec = s;
        }
    }
    for (PlacementPoint &p : pts)
        p.nsPerPage = 1e9 * p.cpuSec / p.pages;
    return pts;
}

/** Cost per page of the largest placement (or formula) over the
 *  smallest. */
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

/**
 * Peak-RSS growth per transaction of one timing-only writeMetaOperandPair
 * of @p pages pages at paper geometry, device construction included; 0
 * where it cannot be measured.  It runs in a child process: Linux starts
 * a child's high-water mark at its size at the fork, so neither the
 * mix's peak (a traced mix peaks far above this placement) nor memory
 * freed earlier can hide the placement's growth.
 */
double
placementBytesPerTx(std::uint32_t pages)
{
    double per_tx = 0.0;
#if defined(__linux__)
#if defined(__GLIBC__)
    malloc_trim(0); // fork small: hand freed memory back first
#endif
    int fds[2];
    if (pipe(fds) != 0)
        return 0.0;
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        const std::size_t base = peakRssBytes();
        {
            ParaBitDevice dev(ssd::SsdConfig::paperSsd());
            dev.writeMetaOperandPair(0, pages, pages);
            const std::size_t peak = peakRssBytes();
            if (peak > base)
                per_tx = static_cast<double>(peak - base) / (2.0 * pages);
        }
        const bool sent = write(fds[1], &per_tx, sizeof per_tx) ==
                          static_cast<ssize_t>(sizeof per_tx);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    if (pid < 0 ||
        read(fds[0], &per_tx, sizeof per_tx) !=
            static_cast<ssize_t>(sizeof per_tx))
        per_tx = 0.0;
    close(fds[0]);
    if (pid > 0)
        waitpid(pid, nullptr, 0);
#endif
    return per_tx;
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

/** Per wall second of @p r's timed rounds. */
double
perSec(const RunOut &r, std::uint64_t n)
{
    return r.wallSec > 0 ? static_cast<double>(n) / r.wallSec : 0.0;
}

void
writeJson(const std::string &path, int rounds, const RunOut &r,
          std::size_t rss, const std::vector<PlacementPoint> &placement,
          double bytes_per_tx, const std::vector<PlacementPoint> &formula)
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
       << "  \"transactions\": " << r.transactions << ",\n"
       << "  \"commands\": " << r.commands << ",\n"
       << "  \"wall_seconds\": " << r.wallSec << ",\n"
       << "  \"events_per_sec\": " << perSec(r, r.events) << ",\n"
       << "  \"transactions_per_sec\": " << perSec(r, r.transactions)
       << ",\n"
       << "  \"sim_ops_per_sec\": " << perSec(r, r.commands) << ",\n"
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
       << ", \"bytes_per_tx\": " << bytes_per_tx << "},\n"
       << "  \"formula_scaling\": {\"call\": \"bitwise XOR\", "
          "\"mode\": \"ParaBit\", \"config\": \"paperSsd\", \"points\": [";
    for (std::size_t i = 0; i < formula.size(); ++i) {
        os << (i ? ", " : "") << "{\"stripes\": " << kFormulaStripes[i]
           << ", \"pages\": " << formula[i].pages
           << ", \"cpu_seconds\": " << formula[i].cpuSec
           << ", \"ns_per_page\": " << formula[i].nsPerPage << "}";
    }
    os << "], \"largest_over_smallest\": " << placementScaling(formula)
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

    bench::banner("Simulator self-profile: commands/sec, CPU attribution");

    const RunOut r = run(rounds, obs);
    const double cmds_per_sec = perSec(r, r.commands);
    // Before the sweep, whose paper-geometry batches would dominate it.
    const std::size_t rss = peakRssBytes();
    // Write the mix's artefacts, then switch observability off: the
    // sweep's devices would write the mix's channel/die trace tracks
    // and registry slots.
    const bool obs_ok = obs.finish();
    obs::TraceSink::disableGlobal();
    obs::MetricsRegistry::global().setEnabled(false);
    // Before the timed sweep, whose freed memory it would fork with.
    const double bytes_per_tx = placementBytesPerTx(kPlacementPages.back());
    // Every sweep point builds and drops a paperSsd device.  Keep the
    // freed memory in the process, as perfbench does: otherwise a
    // placement pays page faults for memory the previous device gave
    // back, which is host noise rather than booking cost and lands on
    // the 1K placement the gate divides by.
#if defined(__GLIBC__)
    mallopt(M_TRIM_THRESHOLD, INT32_MAX);
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
    std::vector<PlacementPoint> placement;
    for (const std::uint32_t pages : kPlacementPages)
        placement.push_back(timePlacement(pages));
    const std::vector<PlacementPoint> formula = timeFormulas();

    bench::section("throughput");
    std::printf("  rounds                          %12d\n", rounds);
    std::printf("  engine events dispatched        %12llu\n",
                static_cast<unsigned long long>(r.events));
    std::printf("  scheduler transactions          %12llu\n",
                static_cast<unsigned long long>(r.transactions));
    std::printf("  commands retired                %12llu\n",
                static_cast<unsigned long long>(r.commands));
    std::printf("  wall seconds                    %12.3f\n", r.wallSec);
    std::printf("  events / sec                    %12.0f\n",
                perSec(r, r.events));
    std::printf("  transactions / sec              %12.0f\n",
                perSec(r, r.transactions));
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
    if (bytes_per_tx > 0) {
        std::printf("  %6u pages: peak RSS growth   %12.1f B per transaction\n",
                    kPlacementPages.back(), bytes_per_tx);
        std::printf("  maximum allowed                 %12.1f B\n",
                    kMaxPlacementBytesPerTx);
    } else {
        std::printf("  peak RSS growth per transaction: not measurable "
                    "here\n");
    }

    bench::section("formula scaling (paperSsd, ParaBit XOR)");
    for (std::size_t i = 0; i < formula.size(); ++i) {
        std::printf("  %3u stripes  %10.4f s cpu  %8.1f ns/page op%s\n",
                    kFormulaStripes[i], formula[i].cpuSec,
                    formula[i].nsPerPage,
                    formula[i].ok ? "" : "  (formula failed)");
    }
    const double formula_scaling = placementScaling(formula);
    const std::string formula_label =
        std::to_string(kFormulaStripes.back()) + " / " +
        std::to_string(kFormulaStripes.front()) + " stripes per-page cost";
    std::printf("  %-32s%12.2f\n", formula_label.c_str(), formula_scaling);
    std::printf("  maximum allowed                 %12.2f\n",
                kMaxFormulaScaling);

    if (!json_path.empty())
        writeJson(json_path, rounds, r, rss, placement, bytes_per_tx,
                  formula);

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
    for (std::size_t i = 0; i < formula.size(); ++i) {
        if (!formula[i].ok) {
            std::printf("  FAILED: ParaBit XOR over %u stripes\n",
                        kFormulaStripes[i]);
            rc = 1;
        }
    }
    if (formula_scaling > kMaxFormulaScaling) {
        std::printf("  REGRESSION: per-page cost grows with the formula\n");
        rc = 1;
    }
    if (bytes_per_tx > kMaxPlacementBytesPerTx) {
        std::printf("  REGRESSION: memory per transaction in flight\n");
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
