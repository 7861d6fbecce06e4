/**
 * @file
 * Reproduces Fig 17: sensing-error behaviour with P/E cycling.
 * Left: average and maximum bit errors per 8 KB wordline after the
 * seven sensings of a location-free XOR, over P/E 0..5K.
 * Right: application-level bit-error percentages for the three case
 * studies at 5K P/E.
 *
 * Paper anchors at 5K P/E: mean 0.945 errors per wordline, max 5; the
 * worst application-level rate is 0.00149% (XOR-based encryption).
 *
 * This is a Monte-Carlo experiment over the full circuit model: each
 * sample programs random operand pages into a chip whose blocks were
 * cycled to the target P/E count, runs the location-free XOR program
 * with error injection at every SRO, and counts output bits that differ
 * from the clean execution.
 *
 * `--wear` appends an opt-in section sampling the same experiment with
 * the read-disturb / retention-aware ErrorModel active (neighbor senses
 * and simulated shelf time elevate the per-sensing RBER).  The default
 * output stays byte-identical to the pinned paper figure: the wear
 * factors default to zero.
 */

#include <algorithm>
#include <cstring>

#include "bench/common/report.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "flash/chip.hpp"

namespace {

using namespace parabit;
using namespace parabit::flash;

struct WlErrors
{
    double mean;
    double maxv;
};

/**
 * Sample @p trials wordline XOR executions at @p pe cycles.
 *
 * @param emc error-model parameters (the default has the disturb and
 *        retention factors at zero — the pinned paper model).
 * @param stress_reads patrol-style reads of each operand before the
 *        op, charging neighbor-wordline disturb into the pair.
 * @param age_hours simulated shelf time between program and the op
 *        (retention leakage).
 */
WlErrors
sampleWordlines(std::uint32_t pe, int trials, std::uint64_t seed,
                const ErrorModelConfig &emc = {}, int stress_reads = 0,
                double age_hours = 0.0)
{
    // One wordline = one 8 KB page pair; use a single-plane geometry
    // with 64 Kib pages to match the paper's 8 KB WL accounting.
    FlashGeometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.diesPerChip = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4;
    g.wordlinesPerBlock = 64;
    g.pageBytes = 8 * bytes::kKiB;

    ScalarStat stat;
    Rng rng(seed);
    Chip chip(g, true, emc, seed);
    // Shelf time via the accelerated-aging hook (the kRetentionLoss
    // mechanism): one second of chip clock per trial scales to
    // age_hours of retention, so 2000 trials of month-long shelf time
    // cannot overflow the picosecond tick.
    if (age_hours > 0.0) {
        ChipFaultHooks hooks;
        hooks.retentionMultiplier = [age_hours](const ChipPageAddr &) {
            return age_hours * 3600.0;
        };
        chip.setFaultHooks(hooks);
    }
    Tick clk = 0;

    // Age block 0 to the requested P/E count (one below: the per-batch
    // refresh erase below brings it to exactly pe).
    for (std::uint32_t e = 0; e + 1 < pe; ++e)
        chip.eraseBlock(0, 0, 0);

    // 32 operand pairs fit per erase cycle, so the P/E drift across the
    // whole experiment is trials/32 cycles — negligible against pe.
    const std::uint32_t pairs_per_cycle = g.wordlinesPerBlock / 2;
    std::uint32_t slot = pairs_per_cycle; // force an initial erase
    for (int t = 0; t < trials; ++t) {
        if (slot == pairs_per_cycle) {
            chip.eraseBlock(0, 0, 0);
            slot = 0;
        }
        BitVector m(g.pageBits()), n(g.pageBits());
        for (std::size_t i = 0; i < m.size(); ++i) {
            m.set(i, rng.chance(0.5));
            n.set(i, rng.chance(0.5));
        }
        const std::uint32_t wl_m = 2 * slot;
        const std::uint32_t wl_n = 2 * slot + 1;
        ++slot;
        // operand M in MSB, operand N in LSB
        chip.programPage({0, 0, 0, wl_m, true}, flash::makePayload(m));
        chip.programPage({0, 0, 0, wl_n, false}, flash::makePayload(n));
        for (int r = 0; r < stress_reads; ++r) {
            (void)chip.readPage({0, 0, 0, wl_m, true});
            (void)chip.readPage({0, 0, 0, wl_n, false});
        }
        if (age_hours > 0.0) {
            clk += ticks::fromSec(1.0);
            chip.setNow(clk);
        }
        int errors = 0;
        chip.opLocationFree(BitwiseOp::kXor, {0, 0, 0, wl_m, true},
                            {0, 0, 0, wl_n, false}, &errors);
        stat.sample(errors);
    }
    return WlErrors{stat.mean(), stat.max()};
}

} // namespace

int
main(int argc, char **argv)
{
    bool wear = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--wear") == 0) {
            wear = true;
        } else {
            std::fprintf(stderr, "usage: %s [--wear]\n", argv[0]);
            return 2;
        }
    }
    bench::banner("Fig 17: bit errors vs P/E cycling");

    bench::section("left: errors per 8KB wordline after 7 XOR sensings");
    std::printf("%-10s %12s %12s %12s %12s\n", "P/E", "paper-avg",
                "ours-avg", "paper-max", "ours-max");
    const int trials = 4000;
    double avg_5k = 0;
    for (std::uint32_t pe : {0u, 1000u, 2000u, 3000u, 4000u, 5000u}) {
        const WlErrors e = sampleWordlines(pe, trials, 1234 + pe);
        const bool anchor = pe == 5000;
        if (anchor)
            avg_5k = e.mean;
        std::printf("%-10u %12s %12.4f %12s %12.0f\n", pe,
                    anchor ? "0.945" : "-", e.mean, anchor ? "5" : "-",
                    e.maxv);
    }

    bench::section("right: application-level bit-error percentage at 5K "
                   "P/E");
    // Application rate = mean wordline errors / bits per wordline page,
    // scaled by each workload's sensing count relative to XOR's seven.
    const double bits_per_wl = 8.0 * 1024 * 8;
    const double xor_rate = avg_5k / bits_per_wl * 100.0;
    const double per_sense = xor_rate / 7.0;
    bench::tableHeader("case study", "%");
    bench::row("image encryption (XOR, 7 sensings)", 0.00149, xor_rate);
    bench::row("bitmap index (AND, 3 sensings)", -1, per_sense * 3);
    bench::row("image segmentation (AND chain)", -1, per_sense * 3);
    bench::note("the paper reports 0.00149% worst case for XOR-based "
                "encryption; AND-based workloads sense fewer times and "
                "fare better");

    if (wear) {
        // Opt-in disturb/retention model: the same XOR experiment at
        // 5K P/E with patrol-style neighbor reads charged before the
        // op, and with a month of simulated shelf time.
        bench::section("opt-in wear model at 5K P/E (--wear)");
        ErrorModelConfig aged;
        aged.readDisturbFactor = 1e-3; // +0.1% RBER per neighbor sense
        aged.retentionPerHour = 5e-3;  // +0.5% RBER per shelf hour
        const int wtrials = 2000;
        const WlErrors nom = sampleWordlines(5000, wtrials, 777);
        const WlErrors dis =
            sampleWordlines(5000, wtrials, 777, aged, 200, 0.0);
        const WlErrors ret =
            sampleWordlines(5000, wtrials, 777, aged, 200, 720.0);
        std::printf("%-38s %12s %12s\n", "condition", "avg/WL", "max/WL");
        std::printf("%-38s %12.4f %12.0f\n", "nominal (P/E only)",
                    nom.mean, nom.maxv);
        std::printf("%-38s %12.4f %12.0f\n",
                    "+ read disturb (200 patrol reads)", dis.mean,
                    dis.maxv);
        std::printf("%-38s %12.4f %12.0f\n",
                    "+ 30-day retention on top", ret.mean, ret.maxv);
        bench::note("readDisturbFactor/retentionPerHour default to zero, "
                    "so the paper-figure tables above are byte-identical "
                    "without --wear; the patrol scrubber exists to "
                    "refresh wordlines before this growth compounds");
    }
    return 0;
}
