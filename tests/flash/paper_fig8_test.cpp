/**
 * @file
 * Step-level verification of paper Fig 8: the two-phase location-free
 * XOR.  Phase 1 computes ~M.N through the inverted-initialised L1 and
 * stages it in L2; phase 2 computes M.~N using the M7 inverter to
 * recover the original LSB value, and the final transfer ORs the two
 * minterms into OUT.  Checked for all four (M, N) combinations with
 * node-level assertions on a scalar circuit.
 */

#include <gtest/gtest.h>

#include "flash/latch_circuit.hpp"
#include "flash/op_sequences.hpp"

namespace parabit::flash {
namespace {

/** Broadcast a concrete bit onto the symbolic circuit's SO node. */
StateVec
broadcast(bool bit)
{
    return bit ? statevec::kAllOne : statevec::kAllZero;
}

class Fig8Xor : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(Fig8Xor, TwoPhaseStructure)
{
    const auto [m, n] = GetParam();

    LatchCircuit lc;

    // ---- Phase 1: compute ~M.N -------------------------------------
    // L1 initialised as Fig 7 (inverted), then a NOT-MSB-style read of
    // WL(M) leaves A = ~M.
    lc.initInverted();
    // VREAD1 against a cell whose MSB is M (companion LSB erased = 1):
    // the cell is E (above = 0) when M = 1 and S1 (above = 1) when
    // M = 0, so SO = ~M.
    lc.driveSo(broadcast(!m));
    lc.pulseM1(); // C &= ~SO = M, A regenerates to ~M
    // VREAD3: E and S1 both read "below" (SO = 0) — a no-op pulse.
    lc.driveSo(broadcast(false));
    lc.pulseM2();
    ASSERT_EQ(lc.a(), broadcast(!m)) << "A must hold ~M after phase-1 read";

    // LSB sense of WL(N): SO naturally carries ~N at VREAD2.
    lc.driveSo(broadcast(!n));
    lc.pulseM2();
    ASSERT_EQ(lc.a(), broadcast(!m && n)) << "A = ~M.N";

    // Stage into L2.
    lc.pulseM3();
    ASSERT_EQ(lc.out(), broadcast(!m && n)) << "OUT holds the first minterm";

    // ---- Phase 2: compute M.~N and OR it in ------------------------
    // Re-initialise L1 to all-ones (VREAD0 + M1), then a plain MSB read
    // leaves A = M.
    lc.driveSo(statevec::kAllOne);
    lc.pulseM1();
    ASSERT_EQ(lc.a(), statevec::kAllOne);
    lc.driveSo(broadcast(!m));
    lc.pulseM2();
    ASSERT_EQ(lc.a(), broadcast(m)) << "A must hold M";

    // LSB sense through the M7 inverter recovers the original N, so
    // A &= ~N.
    lc.driveSo(broadcast(n)); // M7 path: SO = N
    lc.pulseM2();
    ASSERT_EQ(lc.a(), broadcast(m && !n)) << "A = M.~N";

    // Final transfer ORs the second minterm into OUT.
    lc.pulseM3();
    EXPECT_EQ(lc.out(), broadcast(m != n))
        << "OUT = ~M.N + M.~N = M XOR N";
}

INSTANTIATE_TEST_SUITE_P(
    AllOperands, Fig8Xor,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto &info) {
        std::string name = "M";
        name += std::to_string(std::get<0>(info.param));
        name += "_N";
        name += std::to_string(std::get<1>(info.param));
        return name;
    });

TEST(Fig8, ProgramEncodesTheSameStructure)
{
    // The declarative program must have exactly the Fig 8 shape: an
    // inverted init, a two-SRO NOT-MSB read, an LSB sense, a transfer,
    // an L1 re-init, a two-SRO MSB read, an inverted-SO LSB sense, and
    // the final transfer.
    const MicroProgram &p = locationFreeProgram(BitwiseOp::kXor);
    ASSERT_EQ(p.steps.size(), 10u);
    EXPECT_EQ(p.steps[0].kind, MicroStep::Kind::kInitInverted);
    EXPECT_EQ(p.steps[4].kind, MicroStep::Kind::kTransfer);
    EXPECT_EQ(p.steps[5].wl, WordlineSel::kNone); // VREAD0 re-init
    EXPECT_TRUE(p.steps[8].soInverted) << "M7 recovers the original LSB";
    EXPECT_EQ(p.steps[9].kind, MicroStep::Kind::kTransfer);
    EXPECT_EQ(p.senseCount(), 7);
}

} // namespace
} // namespace parabit::flash
