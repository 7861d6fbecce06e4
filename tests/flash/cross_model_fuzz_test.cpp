/**
 * @file
 * Cross-model fuzzing: the three latch-circuit interpreters (symbolic
 * StateVec, scalar single-bitline, page-wide latch kernel) implement the
 * same algebra and must agree on randomly generated control programs,
 * not just the curated ParaBit sequences.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flash/latch_array.hpp"
#include "flash/sequence_executor.hpp"

namespace parabit::flash {
namespace {

/** Build a random (syntactically valid) co-located control program. */
MicroProgram
randomProgram(Rng &rng)
{
    MicroProgram p;
    p.op = BitwiseOp::kAnd; // label only; semantics come from the steps
    p.locationFree = false;
    p.steps.push_back(rng.chance(0.5) ? MicroStep::initNormal()
                                      : MicroStep::initInverted());
    const int body = 1 + static_cast<int>(rng.below(8));
    for (int s = 0; s < body; ++s) {
        if (rng.chance(0.25)) {
            p.steps.push_back(MicroStep::transfer());
        } else {
            const auto v = static_cast<VRead>(rng.below(4));
            const auto pulse =
                rng.chance(0.5) ? LatchPulse::kM1 : LatchPulse::kM2;
            p.steps.push_back(MicroStep::sense(v, pulse));
        }
    }
    p.steps.push_back(MicroStep::transfer());
    return p;
}

TEST(CrossModelFuzz, SymbolicScalarAndArrayAgree)
{
    Rng rng(31337);
    for (int trial = 0; trial < 200; ++trial) {
        const MicroProgram prog = randomProgram(rng);

        // Symbolic execution: one OUT bit per hypothetical cell state.
        const StateVec symbolic = runSymbolic(prog);

        // Scalar execution per concrete state must match the symbolic
        // column for that state.
        for (int s = 0; s < kNumMlcStates; ++s) {
            const auto st = static_cast<MlcState>(s);
            EXPECT_EQ(runScalar(prog, st), symbolic.at(s))
                << "trial " << trial << " state " << s;
        }

        // Vectorized execution on a page containing all four states
        // must produce the symbolic column per bitline.
        const std::size_t n = 64;
        BitVector lsb(n), msb(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto st = static_cast<MlcState>(i % 4);
            lsb.set(i, mlcLsb(st));
            msb.set(i, mlcMsb(st));
        }
        BitVector out(n);
        executeProgram(prog, WordlineData{&lsb, &msb}, {}, {}, out);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(out.get(i), symbolic.at(static_cast<int>(i % 4)))
                << "trial " << trial << " bitline " << i;
        }
    }
}

TEST(CrossModelFuzz, EveryRandomProgramKeepsLatchInvariants)
{
    // OUT accumulates monotonically (transfers only OR results in), and
    // the derived B stays its complement throughout.
    Rng rng(4242);
    for (int trial = 0; trial < 100; ++trial) {
        const MicroProgram prog = randomProgram(rng);
        std::vector<SymbolicTraceRow> trace;
        runSymbolicTraced(prog, trace);
        StateVec prev_out = statevec::kAllZero;
        for (const auto &row : trace) {
            EXPECT_EQ(row.out, ~row.b) << "trial " << trial;
            EXPECT_EQ(row.c, ~row.a) << "trial " << trial;
            if (row.label.rfind("Init", 0) == 0) {
                prev_out = row.out;
                continue;
            }
            EXPECT_EQ(row.out & prev_out, prev_out)
                << "OUT lost a bit outside initialisation, trial " << trial;
            prev_out = row.out;
        }
    }
}

} // namespace
} // namespace parabit::flash
