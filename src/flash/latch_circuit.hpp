/**
 * @file
 * Symbolic model of the NAND flash latching circuit (paper Figs 2, 3).
 *
 * The circuit has two latches: L1 with complementary nodes A and C, and
 * L2 with complementary nodes B and OUT, plus the sensing node SO.
 * Control transistors:
 *
 *   MSO  connects the sense amplifier output to SO;
 *   M1   pulls C to ground when SO is high (C <- C AND NOT SO);
 *   M2   pulls A to ground when SO is high (A <- A AND NOT SO);
 *   M3   transfers L1 to L2       (B <- B AND NOT A, OUT = NOT B);
 *   SET  forces OUT to ground during initialisation;
 *   M6/M7 (location-free extension, Fig 8) select the direct or the
 *         inverted sense-amp output onto SO.
 *
 * Latch complementarity is an invariant: C = NOT A and OUT = NOT B after
 * every pulse (the latch regenerates).  During an M1/M2 pulse the pulled
 * node is conditionally grounded and the other side follows through the
 * cross-coupled inverters, which is exactly the
 * L(X) <- L(X)_old AND NOT L(SO) algebra used in the paper.
 *
 * This class is the *symbolic* model: every node carries a StateVec, the
 * value the node takes for each of the four possible states of the MLC
 * cell being sensed.  It exists to verify the paper's control sequences
 * (Tables 2-5, Figs 5/6) literally.  The page-wide model used to move
 * real data is executeProgram() (latch_array.hpp), which runs the same
 * algebra once over the 64 combinations of a bitline's stored bits and
 * applies the resulting truth table to the page, replaying only the
 * bitlines sensing noise touches.
 */

#ifndef PARABIT_FLASH_LATCH_CIRCUIT_HPP_
#define PARABIT_FLASH_LATCH_CIRCUIT_HPP_

#include "common/statevec.hpp"
#include "flash/mlc.hpp"

namespace parabit::flash {

/** Symbolic latching circuit; see file comment. */
class LatchCircuit
{
  public:
    LatchCircuit() { initNormal(); }

    /**
     * Standard initialisation (paper Fig 2): SO and EN1 high ground C,
     * so L(C)=0000 and L(A)=1111; SET grounds OUT so L(OUT)=0000 and
     * L(B)=1111.
     */
    void initNormal();

    /**
     * Inverted initialisation (paper Fig 7) used by NAND/NOR/XOR/NOT:
     * SO and EN2 ground A instead, so L(A)=0000, L(C)=1111; L2 is
     * initialised as in the normal case (B=1111, OUT=0000).
     */
    void initInverted();

    /**
     * Re-initialise only L1 (A and C) without touching L2.  The XOR
     * sequence (Table 4, row 4) achieves this with a VREAD0 sensing that
     * always reports "above": every position of A is pulled low via M2.
     * We model the same effect.
     */
    void reinitL1Inverted();

    /** Apply a Single Read Operation: SO takes senseVector(v). */
    void sense(VRead v);

    /** Drive SO directly (used by the location-free two-wordline path). */
    void driveSo(StateVec so);

    /** Pulse M1: C <- C AND NOT SO; A regenerates to NOT C. */
    void pulseM1();

    /** Pulse M2: A <- A AND NOT SO; C regenerates to NOT A. */
    void pulseM2();

    /** Pulse M3: B <- B AND NOT A; OUT regenerates to NOT B. */
    void pulseM3();

    /** @name Node observers, paper notation. */
    /// @{
    StateVec so() const { return so_; }
    StateVec a() const { return a_; }
    StateVec c() const { return c_; }
    StateVec b() const { return b_; }
    StateVec out() const { return out_; }
    /// @}

  private:
    StateVec so_;
    StateVec a_;
    StateVec c_;
    StateVec b_;
    StateVec out_;
};

} // namespace parabit::flash

#endif // PARABIT_FLASH_LATCH_CIRCUIT_HPP_
