/**
 * @file
 * Long-horizon reliability soak: GC + disturb wear + patrol scrub +
 * RAIN rebuild + one sudden power cut, per seed.
 *
 * Each seeded run drives a mixed overwrite/read workload with media
 * management and die-level RAIN parity enabled, arms one power cut at a
 * random PhysOp boundary, power-cycles through SPOR recovery, then
 * kills a whole die and lets patrol + on-demand repair rebuild it.  The
 * run verifies every acknowledged page against an in-memory oracle and
 * counts pages that stayed unreadable after rebuild.
 *
 * `--json FILE` writes the machine-readable report (the CI trajectory
 * file `BENCH_reliability.json`): simulated host ops/sec of wall time,
 * the patrol-scrub share of total flash traffic, and the
 * uncorrectable-after-rebuild count (the acceptance bar is zero).
 * `--trace-out FILE` additionally re-runs one seed with the Perfetto
 * sink attached so scrub_pass / rain_rebuild spans land in the trace.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common/obs_args.hpp"
#include "bench/common/report.hpp"
#include "common/rng.hpp"
#include "ssd/ssd.hpp"

namespace {

using namespace parabit;

constexpr ssd::Lpn kHotLpns = 128; ///< overwrite-heavy working set
constexpr int kSteps = 3000;       ///< mixed host ops per run

ssd::SsdConfig
soakCfg(std::uint64_t seed, std::uint64_t audit_interval)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    // Whole-device invariant audit every N drains when requested; a
    // violation panics with the violating suite's context.
    cfg.invariants.auditInterval = audit_interval;
    cfg.geometry.blocksPerPlane = 16;
    cfg.recovery.enabled = true;
    cfg.recovery.checkpointIntervalPrograms = 32;
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(5);
    cfg.media.scrubWordlinesPerPass = 64;
    cfg.media.refreshDisturbThreshold = 256;
    cfg.rain.enabled = true;
    cfg.seed = 0xBEEF00ull + seed;
    return cfg;
}

BitVector
pattern(std::size_t bits, ssd::Lpn lpn, std::uint64_t version)
{
    BitVector v(bits, false);
    std::uint64_t s = (lpn + 1) * 0x9E3779B97F4A7C15ull + version;
    for (std::size_t i = 0; i < bits; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        v.set(i, ((s >> 61) & 1) != 0);
    }
    return v;
}

struct RunOut
{
    double hostOps = 0;       ///< host writes + reads issued
    double hostPhysOps = 0;   ///< flash ops those host calls booked
    double scrubReads = 0;    ///< patrol scan senses
    double refreshes = 0;     ///< wordlines refresh-relocated
    double repairs = 0;       ///< dead-die pages rebuilt from parity
    double gcRuns = 0;
    double uncorrectable = 0; ///< pages lost after rebuild (bar: 0)
    double mismatches = 0;    ///< oracle mismatches after repair (bar: 0)
    double wallSec = 0;
    bool recovered = false;
};

RunOut
run(std::uint64_t seed, std::uint64_t audit_interval)
{
    const auto t0 = std::chrono::steady_clock::now();
    ssd::SsdDevice dev(soakCfg(seed, audit_interval));
    ssd::Ftl &ftl = dev.ftl();
    const std::size_t bits = dev.geometry().pageBits();
    Rng rng(seed * 0x5DEECE66Dull + 7);

    RunOut out;
    std::map<ssd::Lpn, BitVector> oracle;
    std::uint64_t version = 0;
    Tick now = 0;

    ssd::FaultSpec cut;
    cut.cls = ssd::FaultClass::kPowerLoss;
    cut.onset = static_cast<std::uint32_t>(300 + rng.below(400));
    dev.injectFault(cut);

    // Fill, then the mixed phase; the cut fires somewhere in here.
    for (ssd::Lpn l = 0; l < kHotLpns && !ftl.powerLost(); ++l) {
        const BitVector d = pattern(bits, l, ++version);
        std::vector<ssd::PhysOp> ops;
        ++out.hostOps;
        if (ftl.writePage(l, &d, ops))
            oracle[l] = d;
        out.hostPhysOps += static_cast<double>(ops.size());
        now = dev.scheduleOps(ops, now);
    }
    for (int step = 0; step < kSteps && !ftl.powerLost(); ++step) {
        const std::uint64_t roll = rng.below(100);
        const ssd::Lpn lpn = rng.below(kHotLpns);
        std::vector<ssd::PhysOp> ops;
        if (roll < 40) {
            const BitVector d = pattern(bits, lpn, ++version);
            ++out.hostOps;
            if (ftl.writePage(lpn, &d, ops))
                oracle[lpn] = d;
        } else if (oracle.count(lpn) != 0 && ftl.pageAccessible(lpn)) {
            ++out.hostOps;
            const BitVector got = *ftl.readPage(lpn, ops);
            // A cut on this read's op boundary returns power-down
            // zeros; only live reads count against the oracle.
            if (!ftl.powerLost() && got != oracle[lpn])
                ++out.mismatches;
        }
        out.hostPhysOps += static_cast<double>(ops.size());
        now = dev.scheduleOps(ops, now);
        now += ticks::fromUs(1);
        now = dev.pumpMedia(now);
    }

    const ssd::RecoveryReport rep = dev.powerCycle(now);
    out.recovered = rep.recovered;

    // Post-recovery long phase: enough overwrite churn for GC and for
    // patrol-charged disturb to cross the refresh threshold.
    for (int step = 0; step < kSteps; ++step) {
        const std::uint64_t roll = rng.below(100);
        const ssd::Lpn lpn = rng.below(kHotLpns);
        std::vector<ssd::PhysOp> ops;
        if (roll < 40) {
            const BitVector d = pattern(bits, lpn, ++version);
            ++out.hostOps;
            if (ftl.writePage(lpn, &d, ops))
                oracle[lpn] = d;
        } else if (oracle.count(lpn) != 0 && ftl.pageAccessible(lpn)) {
            ++out.hostOps;
            if (*ftl.readPage(lpn, ops) != oracle[lpn])
                ++out.mismatches;
        }
        out.hostPhysOps += static_cast<double>(ops.size());
        now = dev.scheduleOps(ops, now);
        now += ticks::fromUs(1);
        now = dev.pumpMedia(now);
    }

    // Whole-die failure, patrol passes, then on-demand repair sweep.
    ssd::FaultSpec die;
    die.cls = ssd::FaultClass::kDieFail;
    die.plane = static_cast<std::uint32_t>((seed % 4) * 2);
    dev.injectFault(die);
    for (int round = 0; round < 4; ++round)
        now = dev.pumpMedia(dev.media()->nextPassAt() + 1);

    for (const auto &[lpn, want] : oracle) {
        if (!ftl.lookup(lpn).has_value()) {
            ++out.uncorrectable;
            continue;
        }
        if (!ftl.pageAccessible(lpn) && !dev.repairPage(lpn, now)) {
            ++out.uncorrectable;
            continue;
        }
        std::vector<ssd::PhysOp> ops;
        if (*ftl.readPage(lpn, ops) != want)
            ++out.mismatches;
    }

    out.scrubReads = static_cast<double>(dev.media()->scrubReads());
    out.refreshes = static_cast<double>(dev.media()->refreshes());
    out.repairs = static_cast<double>(dev.media()->repairs());
    out.uncorrectable +=
        static_cast<double>(dev.media()->uncorrectable());
    out.gcRuns = static_cast<double>(ftl.gcRuns());
    out.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::uint64_t seeds = 8;
    bench::ObsOptions obs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--seeds" && i + 1 < argc) {
            seeds = std::strtoull(argv[++i], nullptr, 10);
        } else if (obs.consume(argc, argv, i)) {
            continue;
        } else {
            std::fprintf(stderr, "usage: %s [--json FILE] [--seeds N]\n%s\n",
                         argv[0], bench::ObsOptions::help());
            return 2;
        }
    }
    obs.enableMetrics(); // before any device is constructed

    bench::banner("reliability soak: GC + disturb + scrub + RAIN rebuild "
                  "+ SPOR cut");

    std::vector<RunOut> rows;
    RunOut sum;
    for (std::uint64_t s = 0; s < seeds; ++s) {
        const RunOut r = run(s, obs.auditInterval);
        rows.push_back(r);
        sum.hostOps += r.hostOps;
        sum.hostPhysOps += r.hostPhysOps;
        sum.scrubReads += r.scrubReads;
        sum.refreshes += r.refreshes;
        sum.repairs += r.repairs;
        sum.gcRuns += r.gcRuns;
        sum.uncorrectable += r.uncorrectable;
        sum.mismatches += r.mismatches;
        sum.wallSec += r.wallSec;
        sum.recovered = s == 0 ? r.recovered : (sum.recovered && r.recovered);
    }

    const double ops_per_sec =
        sum.wallSec > 0 ? sum.hostOps / sum.wallSec : 0.0;
    // Scrub *share* of all flash traffic, bounded to [0, 100].  The
    // old "overhead" ratio divided patrol senses by host-booked ops
    // alone, so a patrol-heavy soak reported >200% "overhead" — true
    // as a ratio, useless as a percentage.
    const double flash_traffic = sum.scrubReads + sum.hostPhysOps;
    const double scrub_pct =
        flash_traffic > 0 ? 100.0 * sum.scrubReads / flash_traffic : 0.0;

    bench::section("per-seed runs");
    std::printf("%-6s %9s %9s %9s %8s %8s %8s %8s\n", "seed", "host ops",
                "scrub rd", "refresh", "repairs", "gc", "uncorr",
                "mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunOut &r = rows[i];
        std::printf("%-6zu %9.0f %9.0f %9.0f %8.0f %8.0f %8.0f %8.0f\n", i,
                    r.hostOps, r.scrubReads, r.refreshes, r.repairs,
                    r.gcRuns, r.uncorrectable, r.mismatches);
    }

    bench::section("aggregate");
    std::printf("  simulated host ops/sec (wall)   %12.0f\n", ops_per_sec);
    std::printf("  scrub share (%% of flash traffic)%12.2f\n", scrub_pct);
    std::printf("  uncorrectable after rebuild     %12.0f\n",
                sum.uncorrectable);
    std::printf("  oracle mismatches               %12.0f\n",
                sum.mismatches);
    std::printf("  all recoveries clean            %12s\n",
                sum.recovered ? "yes" : "NO");
    bench::note("share = patrol scan senses / (patrol senses + "
                "host-booked flash ops); the acceptance bar is zero "
                "uncorrectable and zero mismatches");

    if (!json_path.empty()) {
        std::ostringstream os;
        os << "{\n  \"schema_version\": 1,\n"
           << "  \"tool\": \"bench_reliability_soak\",\n"
           << "  \"config\": {\"seeds\": " << seeds
           << ", \"steps\": " << kSteps << ", \"hot_lpns\": " << kHotLpns
           << ", \"audit_interval\": " << obs.auditInterval << "},\n"
           << "  \"seeds\": " << seeds << ",\n"
           << "  \"sim_ops_per_sec\": " << ops_per_sec << ",\n"
           << "  \"scrub_share_pct\": " << scrub_pct << ",\n"
           << "  \"uncorrectable_after_rebuild\": " << sum.uncorrectable
           << ",\n"
           << "  \"oracle_mismatches\": " << sum.mismatches << ",\n"
           << "  \"all_recovered\": "
           << (sum.recovered ? "true" : "false") << ",\n  \"rows\": [";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const RunOut &r = rows[i];
            os << (i ? "," : "") << "\n    {\n"
               << "      \"seed\": " << i << ",\n"
               << "      \"host_ops\": " << r.hostOps << ",\n"
               << "      \"host_phys_ops\": " << r.hostPhysOps << ",\n"
               << "      \"scrub_reads\": " << r.scrubReads << ",\n"
               << "      \"refreshes\": " << r.refreshes << ",\n"
               << "      \"repairs\": " << r.repairs << ",\n"
               << "      \"gc_runs\": " << r.gcRuns << ",\n"
               << "      \"uncorrectable\": " << r.uncorrectable << ",\n"
               << "      \"mismatches\": " << r.mismatches << ",\n"
               << "      \"wall_sec\": " << r.wallSec << "\n    }";
        }
        os << "\n  ]\n}\n";
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 2;
        }
        out << os.str();
    }

    // One extra traced run so scrub_pass / rain_rebuild spans land in
    // the Perfetto file (a single device: tracks stay untangled).
    if (obs.traceWanted()) {
        obs::TraceSink::enableGlobal();
        (void)run(0, obs.auditInterval);
    }

    int bad = sum.uncorrectable > 0 || sum.mismatches > 0 ||
              !sum.recovered;
    return obs.finish() && !bad ? 0 : 1;
}
