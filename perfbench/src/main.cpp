/**
 * @file
 * perfbench: runs one workload of the repository benchmark.
 *
 *   perfbench --workload {paper_bulk|paper_grid|nvme_mix} --seed N
 *             --seconds S --trace {0|1}
 *   perfbench --self-test
 *
 * A run repeats whole passes of one workload (device build, set-up,
 * the seed's fixed op sequence) until S wall-clock seconds have gone,
 * and reports medians over the passes.  Host times inside a pass are
 * CPU time of the simulator's thread (measure.hpp), except the
 * per-layer self_s values, which come from the simulator's own
 * profiler and are wall time.  --trace 0 prints the end-to-end metrics;
 * --trace 1 alternates untraced and traced passes (metrics registry,
 * self-profiler and the benchmark's stage brackets on) and prints the
 * per-layer metrics, including the tracing overhead.
 *
 * Checks that fail the run (exit 1, "correct": false): a result that
 * differs from the oracle or a non-OK status the benchmark did not
 * predict; any simulated value that differs between passes of one seed
 * (traced against untraced included, which would mean tracing perturbs
 * the simulated device); a warning logged by the simulator.  The
 * self-tests run first in every run.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "common/logging.hpp"
#include "measure.hpp"
#include "selftest.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload
{
    const char *name;
    PassOut (*run)(std::uint64_t seed, bool traced);
};

const Workload kWorkloads[] = {
    {"paper_bulk", runPaperBulk},
    {"paper_grid", runPaperGrid},
    {"nvme_mix", runNvmeMix},
};

/** Per-layer metrics and their units, in report order. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"ssd.sched.self_s", "s"},
    {"ssd.sched.tx", "count"},
    {"ssd.sched.ns_per_tx", "ns"},
    {"ssd.sched.max_queue_depth", "count"},
    {"ssd.sched.queue_wait_ms_p50", "ms"},
    {"ssd.sched.channel_busy_share", "ratio"},
    {"ssd.sched.plane_busy_share", "ratio"},
    {"ssd.event_engine.events", "count"},
    {"ssd.event_engine.self_s", "s"},
    {"ssd.event_engine.ns_per_event", "ns"},
    {"flash.self_s", "s"},
    {"flash.ns_per_sense", "ns"},
    {"flash.array_ms_p50", "ms"},
    {"ssd.ftl.self_s", "s"},
    {"ssd.ftl.host_pages", "count"},
    {"ssd.ftl.gc_pages", "count"},
    {"ssd.ftl.parabit_pages", "count"},
    {"ssd.ftl.erases", "count"},
    {"ssd.ftl.gc_runs", "count"},
    {"ssd.ftl.journal_records", "count"},
    {"ssd.ftl.checkpoints", "count"},
    {"ssd.ftl.program_failures", "count"},
    {"ssd.ftl.write_amp", "ratio"},
    {"parabit.controller.formulas", "count"},
    {"parabit.controller.sense_ops", "count"},
    {"parabit.controller.realloc_programs", "count"},
    {"parabit.controller.realloc_bytes_per_operand_byte", "ratio"},
    {"parabit.controller.host_fallbacks", "count"},
    {"parabit.controller.unattributed_self_s", "s"},
    {"parabit.controller.scratch_headroom", "pages"},
    {"parabit.device.place_s", "s"},
    {"parabit.device.bitwise_s", "s"},
    {"parabit.device.place_sim_ms", "ms"},
    {"parabit.host_interface.submit_s", "s"},
    {"parabit.host_interface.pump_s", "s"},
    {"parabit.host_interface.reap_s", "s"},
    {"parabit.host_interface.sq_wait_ms_p50", "ms"},
    {"parabit.host_interface.read_ms_p50", "ms"},
    {"parabit.host_interface.write_ms_p50", "ms"},
    {"parabit.host_interface.flush_ms_p50", "ms"},
    {"parabit.host_interface.formula_ms_p50", "ms"},
    {"parabit.host_interface.timeouts", "count"},
    {"parabit.host_interface.requeues", "count"},
    {"parabit.host_interface.sheds", "count"},
    {"parabit.cost_model.gap_pct.ParaBit", "%"},
    {"parabit.cost_model.gap_pct.ReAlloc", "%"},
    {"parabit.cost_model.gap_pct.LocFree", "%"},
    {"obs.self_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"oracle.error_rate", "ratio"},
    {"oracle.wrong_results", "count"},
    {"oracle.bad_status", "count"},
    {"oracle.checked_pages", "count"},
    {"bench.own_s", "s"},
};

std::uint64_t g_warnings = 0;

double
peakRssMib()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Every deterministic quantity of a pass, flattened for comparison. */
std::vector<std::pair<std::string, double>>
simDigest(const PassOut &p)
{
    std::vector<std::pair<std::string, double>> d(p.sim.begin(),
                                                  p.sim.end());
    d.emplace_back("ops", static_cast<double>(p.ops));
    d.emplace_back("host_bytes", p.hostBytes);
    d.emplace_back("sim_makespan_s", p.simMakespanS);
    d.emplace_back("tally.attempted", static_cast<double>(p.tally.attempted));
    d.emplace_back("tally.bad_status", static_cast<double>(p.tally.badStatus));
    d.emplace_back("tally.wrong_results",
                   static_cast<double>(p.tally.wrongResults));
    d.emplace_back("tally.wrong_pages",
                   static_cast<double>(p.tally.wrongPages));
    for (std::size_t i = 0; i < p.simLatencyMs.size(); ++i)
        d.emplace_back("latency[" + std::to_string(i) + "]",
                       p.simLatencyMs[i]);
    return d;
}

/** @return the first differing key between two passes, or "". */
std::string
firstDifference(const PassOut &a, const PassOut &b)
{
    const auto da = simDigest(a), db = simDigest(b);
    if (da.size() != db.size())
        return "digest size " + std::to_string(da.size()) + " vs " +
               std::to_string(db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
        if (da[i].first != db[i].first)
            return "key " + da[i].first + " vs " + db[i].first;
        if (da[i].second != db[i].second)
            return da[i].first + ": " + std::to_string(da[i].second) +
                   " vs " + std::to_string(db[i].second);
    }
    return "";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload {paper_bulk|paper_grid|nvme_mix} --seed N"
                 " --seconds S --trace {0|1}\n       "
              << argv0 << " --self-test\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    bool self_test_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--self-test") {
            self_test_only = true;
        } else if (a == "--workload" && has_value) {
            workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            trace = std::atoi(argv[++i]);
        } else {
            return usage(argv[0]);
        }
    }

    // Simulator log lines go to stderr, and every warning counts: a
    // warning means the device misbehaved and the numbers are suspect.
    parabit::setLogSink([](parabit::LogLevel lvl, const std::string &msg) {
        if (lvl >= parabit::LogLevel::kWarn) {
            if (++g_warnings <= 5)
                std::cerr << "[" << parabit::logLevelName(lvl) << "] " << msg
                          << "\n";
        }
    });

    // Every pass builds and drops a device of the same shape.  Keep the
    // freed memory in the process so that later passes reuse it instead
    // of paying page faults whose cost depends on other load on the host.
    mallopt(M_TRIM_THRESHOLD, INT32_MAX);
    mallopt(M_MMAP_THRESHOLD, 32 << 20);

    if (!runSelfTests(std::cerr))
        return 3;
    if (self_test_only) {
        std::cout << "self-tests passed\n";
        return 0;
    }

    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (workload == w.name)
            wl = &w;
    if (wl == nullptr || seconds <= 0 || (trace != 0 && trace != 1))
        return usage(argv[0]);

    // The run length is wall time; everything measured inside is CPU
    // time (Clock).  Peak memory is read after the first pass, so that
    // it does not depend on how many passes fit into the run.
    using Wall = std::chrono::steady_clock;
    std::vector<PassOut> plain, traced;
    double peak_rss_mib = 0;
    const Wall::time_point t0 = Wall::now();
    const auto wall = [&] {
        return std::chrono::duration<double>(Wall::now() - t0).count();
    };
    do {
        plain.push_back(wl->run(seed, false));
        if (plain.size() == 1)
            peak_rss_mib = peakRssMib();
        if (trace)
            traced.push_back(wl->run(seed, true));
    } while (wall() < seconds);
    const double wall_s = wall();

    // Determinism: every pass of this seed must agree on every simulated
    // value, the traced ones included.
    bool correct = true;
    const PassOut &ref = plain.front();
    for (const auto *set : {&plain, &traced}) {
        for (std::size_t i = 0; i < set->size(); ++i) {
            const std::string diff = firstDifference(ref, (*set)[i]);
            if (!diff.empty()) {
                std::cerr << "perfbench: simulated results differ between "
                             "passes of one seed ("
                          << (set == &traced ? "traced" : "untraced")
                          << " pass " << i << "): " << diff << "\n";
                correct = false;
            }
        }
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto *set : {&plain, &traced}) {
        for (const PassOut &p : *set) {
            attempted += p.tally.attempted;
            failed += p.tally.unexpected();
        }
    }
    if (failed > 0 || g_warnings > 0)
        correct = false;

    std::vector<double> rates, setups, plain_total, traced_total;
    for (const PassOut &p : plain) {
        rates.push_back(p.loopS > 0 ? static_cast<double>(p.ops) / p.loopS
                                    : 0.0);
        setups.push_back(p.setupS);
        plain_total.push_back(p.setupS + p.loopS);
    }
    for (const PassOut &p : traced)
        traced_total.push_back(p.setupS + p.loopS);
    const Tail tail = tailOf(ref.simLatencyMs);
    if (!tail.defined) {
        std::cerr << "perfbench: a pass needs more than 10 latency samples "
                     "for the tail percentile\n";
        correct = false;
    }
    const Tally &t = ref.tally;

    std::printf("perfbench %s seed %llu: %zu untraced + %zu traced passes "
                "in %.2f s\n",
                wl->name, static_cast<unsigned long long>(seed), plain.size(),
                traced.size(), wall_s);
    for (const std::string &n : (traced.empty() ? ref : traced[0]).notes)
        std::printf("  %s\n", n.c_str());
    std::printf("  untraced passes (CPU s, setup / loop):");
    for (const PassOut &p : plain)
        std::printf(" %.3f/%.3f", p.setupS, p.loopS);
    std::printf("\n  error_rate %.6f = %llu failed of %llu attempted ops "
                "(%llu non-OK status, %llu wrong results = %llu wrong pages "
                "of %llu checked; %llu of them at predicted defect sites)\n",
                t.errorRate(), static_cast<unsigned long long>(t.failed()),
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.badStatus),
                static_cast<unsigned long long>(t.wrongResults),
                static_cast<unsigned long long>(t.wrongPages),
                static_cast<unsigned long long>(t.checkedPages),
                static_cast<unsigned long long>(t.predictedWrong));
    std::printf("  sim latency tail: p%.2f of %zu samples (%zu beyond)\n",
                tail.percentile, tail.samples, tail.beyond);
    std::printf("  simulator warnings logged: %llu\n",
                static_cast<unsigned long long>(g_warnings));

    std::vector<std::pair<std::string, std::pair<double, const char *>>> m;
    if (trace == 0) {
        m.push_back({"ops_per_s", {median(rates), "1/s"}});
        m.push_back({"setup_s", {median(setups), "s"}});
        m.push_back({"peak_rss_mib", {peak_rss_mib, "MiB"}});
        m.push_back({"sim_latency_ms_p50", {median(ref.simLatencyMs), "ms"}});
        m.push_back({"sim_latency_ms_tail", {tail.value, "ms"}});
        m.push_back({"sim_mb_per_s",
                     {ref.simMakespanS > 0
                          ? ref.hostBytes / 1e6 / ref.simMakespanS
                          : 0.0,
                      "MB/s"}});
    } else {
        for (const auto &[name, unit] : kLayerMetrics) {
            std::vector<double> v;
            for (const PassOut &p : traced) {
                const auto it = p.layer.find(name);
                v.push_back(it == p.layer.end() ? 0.0 : it->second);
            }
            m.push_back({name, {median(v), unit}});
        }
        const double plain_med = median(plain_total);
        const auto set = [&](const char *name, double v) {
            for (auto &e : m)
                if (e.first == name)
                    e.second.first = v;
        };
        set("obs.trace_overhead_pct",
            plain_med > 0 ? 100.0 * (median(traced_total) / plain_med - 1.0)
                          : 0.0);
        set("oracle.error_rate", t.errorRate());
        set("oracle.wrong_results", static_cast<double>(t.wrongResults));
        set("oracle.bad_status", static_cast<double>(t.badStatus));
        set("oracle.checked_pages", static_cast<double>(t.checkedPages));
    }
    for (const auto &[name, vu] : m)
        std::printf("  %-52s %16.6f %s\n", name.c_str(), vu.first,
                    vu.second);
    std::printf("  simulated (sim) values are unvalidated against hardware; "
                "only the rows marked as a paper anchor compare with a "
                "reference\n");

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        json += (i ? ", \"" : "\"") + m[i].first + "\": {\"value\": " +
                jsonNumber(m[i].second.first) + ", \"unit\": \"" +
                m[i].second.second + "\"}";
    }
    json += "}}";
    std::fflush(stdout);
    std::cout << json << std::endl;
    return correct ? 0 : 1;
}
