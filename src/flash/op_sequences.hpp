/**
 * @file
 * Declarative control-sequence library for ParaBit bitwise operations.
 *
 * A MicroProgram is the ordered list of latch-circuit control steps (full
 * initialisation, sensing pulses, L1->L2 transfers) that realises one
 * bitwise operation.  Programs exist in two flavours:
 *
 *  - co-located: both operand bits live in the LSB and MSB pages of the
 *    *same* MLC wordline (paper Section 4.1, Figs 5/6, Tables 2-5);
 *  - location-free: operand M lives in the MSB page of one wordline and
 *    operand N in the LSB page of another wordline on the same bitline
 *    (paper Section 4.2, Fig 8, Tables 6/7).  These use the CACHE READ
 *    RANDOM capability plus the M6/M7 inverter extension.
 *
 * The same program drives three consumers: the symbolic LatchCircuit (to
 * verify the paper's tables bit-for-bit), the page-wide latch kernel
 * executeProgram() (which derives the program's per-bitline truth table
 * to move real page data through the circuit, and replays the bitlines
 * that sensing errors touch), and the timing/energy models (which only
 * need the step counts).
 */

#ifndef PARABIT_FLASH_OP_SEQUENCES_HPP_
#define PARABIT_FLASH_OP_SEQUENCES_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statevec.hpp"
#include "flash/mlc.hpp"

namespace parabit::flash {

/** The seven paper operations; NOT is split by which page it inverts. */
enum class BitwiseOp : std::uint8_t
{
    kAnd = 0,
    kOr,
    kXnor,
    kNand,
    kNor,
    kXor,
    kNotLsb,
    kNotMsb,
};

inline constexpr int kNumBitwiseOps = 8;

/** Human-readable operation name ("AND", "NOT-LSB", ...). */
const char *opName(BitwiseOp op);

/** True for the single-operand NOT variants. */
constexpr bool
isUnary(BitwiseOp op)
{
    return op == BitwiseOp::kNotLsb || op == BitwiseOp::kNotMsb;
}

/**
 * Golden result bit for operand pair (lsb, msb); NOT variants ignore the
 * other operand.  This is the reference the circuit model is tested
 * against (paper Table 1).
 */
constexpr bool
opGolden(BitwiseOp op, bool lsb, bool msb)
{
    switch (op) {
      case BitwiseOp::kAnd: return lsb && msb;
      case BitwiseOp::kOr: return lsb || msb;
      case BitwiseOp::kXnor: return lsb == msb;
      case BitwiseOp::kNand: return !(lsb && msb);
      case BitwiseOp::kNor: return !(lsb || msb);
      case BitwiseOp::kXor: return lsb != msb;
      case BitwiseOp::kNotLsb: return !lsb;
      case BitwiseOp::kNotMsb: return !msb;
    }
    return false;
}

/**
 * The expected L(OUT) vector for a co-located operation, i.e. the output
 * per MLC state (paper Table 1 columns).
 */
constexpr StateVec
opTruth(BitwiseOp op)
{
    return StateVec(opGolden(op, mlcLsb(MlcState::kE), mlcMsb(MlcState::kE)),
                    opGolden(op, mlcLsb(MlcState::kS1), mlcMsb(MlcState::kS1)),
                    opGolden(op, mlcLsb(MlcState::kS2), mlcMsb(MlcState::kS2)),
                    opGolden(op, mlcLsb(MlcState::kS3), mlcMsb(MlcState::kS3)));
}

/** Which latch pulse a sensing step fires. */
enum class LatchPulse : std::uint8_t { kM1, kM2, kM3 };

/**
 * Which wordline a sensing step targets.  kSelf is the co-located case;
 * the location-free programs alternate between the wordline holding
 * operand M (MSB page) and the one holding operand N (LSB page).
 * kNone marks L1-reinit senses at VREAD0, which always report "above"
 * regardless of the cell and therefore need no specific wordline.
 */
enum class WordlineSel : std::uint8_t { kSelf, kOperandM, kOperandN, kNone };

/** One control step of a MicroProgram. */
struct MicroStep
{
    enum class Kind : std::uint8_t
    {
        kInitNormal,   ///< Fig 2 initialisation (A=1111, C=0000)
        kInitInverted, ///< Fig 7 initialisation (A=0000, C=1111)
        kSense,        ///< SRO at vread, then fire pulse (M1 or M2)
        kTransfer,     ///< L1 -> L2 via M3
    };

    Kind kind;
    VRead vread = VRead::kVRead0;
    WordlineSel wl = WordlineSel::kSelf;
    /** Route SO through the M7 inverter (location-free hardware, Fig 8). */
    bool soInverted = false;
    LatchPulse pulse = LatchPulse::kM2;

    static MicroStep initNormal();
    static MicroStep initInverted();
    static MicroStep sense(VRead v, LatchPulse pulse,
                           WordlineSel wl = WordlineSel::kSelf,
                           bool so_inverted = false);
    static MicroStep transfer();
};

/** A complete control sequence for one bitwise operation. */
struct MicroProgram
{
    BitwiseOp op;
    bool locationFree = false;
    std::vector<MicroStep> steps;

    /** Number of Single Read Operations (latency and energy scale with
     *  it), counted over the steps; a shipped program's count is also
     *  in a table (coLocatedSenseCount, locationFreeSenseCount). */
    int senseCount() const;
    /** Number of L1->L2 transfers. */
    int transferCount() const;
    /** True if any step needs the M6/M7 inverter extension. */
    bool needsInverterExtension() const;

    /** Dump as a table resembling the paper's Tables 2-5. */
    std::string describe() const;
};

/**
 * The co-located program for @p op (operands in LSB/MSB of the same
 * wordline).  Returned by reference to a static table.
 */
const MicroProgram &coLocatedProgram(BitwiseOp op);

/** coLocatedProgram(@p op).senseCount(), read from a table built once
 *  with the programs (the per-page-op path asks for it). */
int coLocatedSenseCount(BitwiseOp op);

/**
 * Physical placement of the two location-free operands.
 *
 * The paper's Section 4.2 sequences assume operand M in the MSB page of
 * its wordline and N in the LSB page of another (kMsbLsb).  Real
 * deployments that store all data in LSB pages (the paper's Section 5.5
 * layout) instead sense both operands with single VREAD2 SROs, which
 * shortens every sequence; kLsbLsb provides those programs.
 */
enum class LocFreeVariant : std::uint8_t { kMsbLsb = 0, kLsbLsb };

/**
 * The location-free program for @p op.  With kMsbLsb, operand M lives in
 * the MSB page of one wordline and N in the LSB page of another on the
 * same bitlines; with kLsbLsb both live in LSB pages.
 */
const MicroProgram &locationFreeProgram(BitwiseOp op,
                                        LocFreeVariant variant =
                                            LocFreeVariant::kMsbLsb);

/** locationFreeProgram(@p op, @p variant).senseCount(), read from a
 *  table built once with the programs. */
int locationFreeSenseCount(BitwiseOp op,
                           LocFreeVariant variant = LocFreeVariant::kMsbLsb);

} // namespace parabit::flash

#endif // PARABIT_FLASH_OP_SEQUENCES_HPP_
