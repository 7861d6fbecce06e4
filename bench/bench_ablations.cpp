/**
 * @file
 * Design-choice ablations called out in DESIGN.md:
 *
 *  1. chain-result placement — free-MSB drop vs full re-pair vs
 *     ReAlloc-everything, on the bitmap AND chain;
 *  2. location-free operand layout — the paper's MSB/LSB sequences vs
 *     the all-LSB layout of Section 5.5;
 *  3. majority-vote redundant execution — residual error rate vs
 *     sensing cost, the read-retry analogue for in-flash computation;
 *  4. TLC vs MLC — sensing cost of the eight 2-operand ops plus the
 *     three-operand extensions (Section 4.4.1).
 */

#include "bench/common/report.hpp"
#include "common/rng.hpp"
#include "flash/read_retry.hpp"
#include "flash/tlc.hpp"
#include "parabit/cost_model.hpp"
#include "workloads/bitmap_index.hpp"

namespace {

using namespace parabit;
using core::ChainStep;
using core::CostModel;
using core::Mode;
using flash::BitwiseOp;

void
chainPlacement()
{
    bench::section("ablation 1: chain-result placement (bitmap m=12)");
    CostModel cm(ssd::SsdConfig::paperSsd());
    const std::uint32_t days =
        workloads::BitmapIndexWorkload::daysForMonths(12);
    const Bytes bitmap = 100'000'000;

    bench::tableHeader("policy", "s");
    const double drop = cm.chain(BitwiseOp::kAnd, days, bitmap,
                                 Mode::kPreAllocated, false,
                                 flash::LocFreeVariant::kMsbLsb,
                                 ChainStep::kDropIntoFreeMsb)
                            .seconds;
    const double repack = cm.chain(BitwiseOp::kAnd, days, bitmap,
                                   Mode::kPreAllocated, false,
                                   flash::LocFreeVariant::kMsbLsb,
                                   ChainStep::kRepack)
                              .seconds;
    const double realloc = cm.chain(BitwiseOp::kAnd, days, bitmap,
                                    Mode::kReAllocate, false)
                               .seconds;
    bench::row("drop into free MSB (LSB-only layout)", -1, drop);
    bench::row("re-pair per step (packed layout)", -1, repack);
    bench::row("ParaBit-ReAlloc (realloc every op)", -1, realloc);
    bench::note("the LSB-only layout halves chain time vs re-pairing and "
                "is the source of the paper's ParaBit-vs-ReAlloc gap");
}

void
locFreeLayout()
{
    bench::section("ablation 2: location-free operand layout (SRO counts)");
    std::printf("%-10s %14s %14s\n", "op", "Msb/Lsb (paper)",
                "Lsb/Lsb (Sec 5.5)");
    for (int i = 0; i < flash::kNumBitwiseOps; ++i) {
        const auto op = static_cast<BitwiseOp>(i);
        std::printf("%-10s %14d %14d\n", flash::opName(op),
                    flash::locationFreeProgram(
                        op, flash::LocFreeVariant::kMsbLsb)
                        .senseCount(),
                    flash::locationFreeProgram(
                        op, flash::LocFreeVariant::kLsbLsb)
                        .senseCount());
    }
    bench::note("storing everything in LSB pages (as Section 5.5 does) "
                "saves 1-2 SROs per op because LSB senses need a single "
                "read level");
}

void
votingAblation()
{
    bench::section("ablation 3: majority-vote redundant execution "
                   "(XOR @ 5K P/E equivalent noise)");
    flash::FlashGeometry g = flash::FlashGeometry::tiny();
    g.pageBytes = 8 * bytes::kKiB;
    flash::ErrorModelConfig ec; // the calibrated Fig 17 model
    ec.refPeCycles = 1.0;       // run at the anchor rate directly
    ec.decadesOverLife = 0.0;

    std::printf("%-8s %18s %14s\n", "votes", "errors/WL (mean)",
                "SRO cost (x)");
    for (int votes : {1, 3, 5}) {
        flash::Chip chip(g, true, ec, 1000 + votes);
        Rng rng(2000 + votes);
        double total = 0;
        const int trials = 300;
        for (int t = 0; t < trials; ++t) {
            BitVector m(g.pageBits()), n(g.pageBits());
            for (auto &w : m.words())
                w = rng.next();
            for (auto &w : n.words())
                w = rng.next();
            m.maskTail();
            n.maskTail();
            const std::uint32_t wl = static_cast<std::uint32_t>(t) %
                                     (g.wordlinesPerBlock / 2);
            if (wl == 0)
                chip.eraseBlock(0, 0, 0);
            chip.programPage({0, 0, 0, 2 * wl, true}, flash::makePayload(m));
            chip.programPage({0, 0, 0, 2 * wl + 1, false},
                             flash::makePayload(n));
            total += flash::opLocationFreeVoted(chip, BitwiseOp::kXor,
                                                {0, 0, 0, 2 * wl, true},
                                                {0, 0, 0, 2 * wl + 1, false},
                                                votes)
                         .totalBitErrors;
        }
        std::printf("%-8d %18.4f %14d\n", votes, total / trials, votes);
    }
    bench::note("3-way voting removes nearly all residual errors at 3x "
                "sensing cost — the in-flash-computation analogue of "
                "read retry (Section 5.8)");
}

void
tlcAblation()
{
    bench::section("ablation 4: MLC vs TLC sensing costs");
    using namespace parabit::flash::tlc;
    std::printf("%-10s %12s\n", "2-op (MLC)", "SROs");
    for (int i = 0; i < flash::kNumBitwiseOps; ++i) {
        const auto op = static_cast<BitwiseOp>(i);
        std::printf("%-10s %12d\n", flash::opName(op),
                    flash::coLocatedProgram(op).senseCount());
    }
    std::printf("%-10s %12s\n", "3-op (TLC)", "SROs");
    struct Named { const char *name; TlcVec t; };
    const Named ops[] = {{"AND3", and3Truth()},  {"OR3", or3Truth()},
                         {"NAND3", nand3Truth()}, {"NOR3", nor3Truth()},
                         {"XOR3", xor3Truth()},  {"MAJ3", majority3Truth()}};
    for (const auto &nm : ops)
        std::printf("%-10s %12d\n", nm.name,
                    synthesize(nm.t).senseCount());
    bench::note("TLC folds three operands into one cell: AND3/NAND3 cost "
                "a single SRO where MLC would need an op plus a chain "
                "step; parity-style functions pay for their alternating "
                "truth vectors");
}

} // namespace

int
main()
{
    bench::banner("Design-choice ablations");
    chainPlacement();
    locFreeLayout();
    votingAblation();
    tlcAblation();
    return 0;
}
