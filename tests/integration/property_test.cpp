/**
 * @file
 * Property-based tests over randomly generated inputs:
 *
 *  - random chained formulas executed through the full device stack
 *    must equal the host-side fold, for every execution mode;
 *  - random control programs must preserve the latch complementarity
 *    invariant (C = ~A, OUT = ~B) at every step;
 *  - the encode -> parse NVMe round trip must be lossless for random
 *    formulas;
 *  - the cost model must be monotone in operand size and chain length.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flash/latch_circuit.hpp"
#include "nvme/parser.hpp"
#include "parabit/cost_model.hpp"
#include "parabit/device.hpp"

namespace parabit {
namespace {

using core::Mode;
using flash::BitwiseOp;

BitVector
randomPage(std::size_t bits, Rng &rng)
{
    BitVector v(bits);
    for (auto &w : v.words())
        w = rng.next();
    v.maskTail();
    return v;
}

bool
applyGolden(BitwiseOp op, bool x, bool y)
{
    return flash::opGolden(op, x, y);
}

TEST(Property, RandomChainsMatchHostFoldAllModes)
{
    // Commutative, associative ops usable in left-fold chains.
    const BitwiseOp chainable[] = {BitwiseOp::kAnd, BitwiseOp::kOr,
                                   BitwiseOp::kXor, BitwiseOp::kXnor};
    Rng rng(12345);
    for (int trial = 0; trial < 12; ++trial) {
        const BitwiseOp op = chainable[rng.below(4)];
        const Mode mode = static_cast<Mode>(rng.below(3));
        const std::uint32_t operands = 2 + static_cast<std::uint32_t>(
                                               rng.below(4));
        core::ParaBitDevice dev(ssd::SsdConfig::tiny());
        const std::size_t bits = dev.ssd().geometry().pageBits();

        std::vector<BitVector> data;
        std::vector<nvme::Lpn> lpns;
        for (std::uint32_t k = 0; k < operands; ++k) {
            data.push_back(randomPage(bits, rng));
            const nvme::Lpn lpn = 50 * k;
            dev.writeDataLsbOnly(lpn, {data.back()});
            lpns.push_back(lpn);
        }

        const auto r = dev.bitwiseChain(op, lpns, 1, mode);
        BitVector expect = data[0];
        for (std::uint32_t k = 1; k < operands; ++k) {
            BitVector next(bits);
            for (std::size_t i = 0; i < bits; ++i)
                next.set(i, applyGolden(op, expect.get(i), data[k].get(i)));
            expect = std::move(next);
        }
        ASSERT_EQ(r.pages.size(), 1u);
        EXPECT_EQ(r.pages[0], expect)
            << "trial " << trial << " op " << flash::opName(op) << " mode "
            << core::modeName(mode) << " operands " << operands;
    }
}

TEST(Property, RandomPulseSequencesPreserveComplementarity)
{
    Rng rng(777);
    for (int trial = 0; trial < 50; ++trial) {
        flash::LatchCircuit lc;
        if (rng.chance(0.5))
            lc.initInverted();
        for (int step = 0; step < 20; ++step) {
            const auto v = static_cast<flash::VRead>(rng.below(4));
            lc.sense(v);
            switch (rng.below(3)) {
              case 0: lc.pulseM1(); break;
              case 1: lc.pulseM2(); break;
              default: lc.pulseM3(); break;
            }
            ASSERT_EQ(lc.c(), ~lc.a()) << "trial " << trial;
            ASSERT_EQ(lc.out(), ~lc.b()) << "trial " << trial;
        }
    }
}

TEST(Property, NvmeEncodeParseRoundTripRandomFormulas)
{
    Rng rng(999);
    nvme::CmdParser parser(8 * bytes::kKiB);
    for (int trial = 0; trial < 25; ++trial) {
        nvme::Formula f;
        const std::uint32_t terms = 1 + static_cast<std::uint32_t>(
                                            rng.below(4));
        const std::uint32_t pages = 1 + static_cast<std::uint32_t>(
                                            rng.below(3));
        for (std::uint32_t t = 0; t < terms; ++t) {
            f.terms.push_back(nvme::Formula::Term{
                nvme::OperandRef::logical(rng.below(1000), pages),
                nvme::OperandRef::logical(1000 + rng.below(1000), pages),
                static_cast<BitwiseOp>(rng.below(6))});
            if (t + 1 < terms)
                f.chainOps.push_back(
                    static_cast<BitwiseOp>(rng.below(6)));
        }
        const auto batches = parser.parse(parser.encode(f));
        // terms explicit batches + (terms-1) synthesised combinations.
        ASSERT_EQ(batches.size(), 2 * terms - 1) << "trial " << trial;
        for (std::uint32_t t = 0; t < terms; ++t) {
            EXPECT_EQ(batches[t].intraOp, f.terms[t].op);
            EXPECT_EQ(batches[t].subOps.size(), pages);
            EXPECT_EQ(batches[t].subOps[0].first.lpn, f.terms[t].first.lpn);
            EXPECT_EQ(batches[t].subOps[0].second.lpn,
                      f.terms[t].second.lpn);
        }
        for (std::uint32_t k = 0; k + 1 < terms; ++k)
            EXPECT_EQ(batches[terms + k].intraOp, f.chainOps[k]);

        // The in-process path builds the same batches, chain batches
        // included, in every field the controller reads.
        const auto direct = parser.buildBatches(f);
        ASSERT_EQ(direct.size(), batches.size()) << "trial " << trial;
        for (std::size_t b = 0; b < batches.size(); ++b) {
            const nvme::Batch &want = batches[b];
            const nvme::Batch &got = direct[b];
            const std::string where =
                "trial " + std::to_string(trial) + " batch " +
                std::to_string(b);
            EXPECT_EQ(got.id, want.id) << where;
            EXPECT_EQ(got.intraOp, want.intraOp) << where;
            EXPECT_EQ(got.extraOp, want.extraOp) << where;
            EXPECT_EQ(got.order, want.order) << where;
            for (const auto &[g, w] :
                 {std::pair{got.firstOperand, want.firstOperand},
                  std::pair{got.secondOperand, want.secondOperand}}) {
                EXPECT_EQ(g.kind, w.kind) << where;
                EXPECT_EQ(g.lpn, w.lpn) << where;
                EXPECT_EQ(g.pages, w.pages) << where;
                EXPECT_EQ(g.batchId, w.batchId) << where;
            }
            ASSERT_EQ(got.subOps.size(), want.subOps.size()) << where;
            for (std::size_t p = 0; p < got.subOps.size(); ++p) {
                EXPECT_EQ(got.subOps[p].first.lpn, want.subOps[p].first.lpn)
                    << where;
                EXPECT_EQ(got.subOps[p].second.lpn,
                          want.subOps[p].second.lpn)
                    << where;
            }
        }
    }
}

TEST(Property, CostModelMonotoneInSizeAndChainLength)
{
    core::CostModel cm(ssd::SsdConfig::paperSsd());
    Rng rng(555);
    for (int trial = 0; trial < 30; ++trial) {
        const auto op = static_cast<BitwiseOp>(rng.below(6));
        const auto mode = static_cast<Mode>(rng.below(3));
        const Bytes a = 1 + rng.below(1u << 30);
        const Bytes b = a + 1 + rng.below(1u << 30);
        EXPECT_LE(cm.binaryOp(op, a, mode, core::ChainStep::kNone, false)
                      .seconds,
                  cm.binaryOp(op, b, mode, core::ChainStep::kNone, false)
                      .seconds)
            << "size monotonicity, trial " << trial;

        const std::uint32_t k = 2 + static_cast<std::uint32_t>(
                                        rng.below(20));
        EXPECT_LT(cm.chain(op, k, a, mode, false).seconds,
                  cm.chain(op, k + 1, a, mode, false).seconds)
            << "chain monotonicity, trial " << trial;
    }
}

TEST(Property, EnergyNeverNegativeAndScalesWithWork)
{
    core::CostModel cm(ssd::SsdConfig::paperSsd());
    Rng rng(222);
    for (int trial = 0; trial < 30; ++trial) {
        const auto op = static_cast<BitwiseOp>(rng.below(6));
        const auto mode = static_cast<Mode>(rng.below(3));
        const Bytes sz = 1 + rng.below(1u << 28);
        const auto c1 =
            cm.binaryOp(op, sz, mode, core::ChainStep::kNone, false);
        const auto c2 =
            cm.binaryOp(op, 2 * sz, mode, core::ChainStep::kNone, false);
        EXPECT_GT(c1.energyJ, 0.0);
        EXPECT_LE(c1.energyJ, c2.energyJ);
    }
}

} // namespace
} // namespace parabit
