/**
 * @file
 * Page-wide (whole-wordline) latch circuit model.
 *
 * Every bitline of a plane has its own copy of the latching circuit, and
 * a sensing pulse operates on all of them in parallel — this is where
 * ParaBit's "bulk" nature comes from.  executeProgram() runs one
 * MicroProgram over every bitline of a page pair at once.
 *
 * Only C and B carry state: the latches regenerate A = NOT C and
 * OUT = NOT B after every pulse (DESIGN §5.1).  Sensing reads the
 * stored bits using the Gray code of Table 1:
 *
 *   VREAD0: above for every state            -> SO = 1
 *   VREAD1: above unless the cell is E       -> SO = ~(LSB & MSB)
 *   VREAD2: above iff state >= S2            -> SO = ~LSB
 *   VREAD3: above iff the cell is S3         -> SO = ~LSB & MSB
 *
 * Bitlines share one control sequence and never interact, so a clean
 * bitline's result is one fixed function of the six stored bits a
 * sensing can read (the self, M and N wordlines, LSB and MSB each).
 * The kernel derives that function's truth table by running the steps
 * once over a word whose 64 lanes enumerate the six bits, then makes
 * one pass over the page words the table depends on and writes the
 * result page.
 *
 * Sensing noise is data (SenseNoise): the bitlines each sensing flips,
 * drawn by the caller in sensing order, and the plane's stuck bitlines.
 * Both land on SO after the M7 inversion and before the pulse, which is
 * exactly where real sensing errors enter (and why the paper notes ECC
 * cannot run after ParaBit ops).  The bitlines noise names are gathered
 * 64 to a word and replayed through the same steps with their noise
 * applied; their replayed results overwrite the table's.
 */

#ifndef PARABIT_FLASH_LATCH_ARRAY_HPP_
#define PARABIT_FLASH_LATCH_ARRAY_HPP_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvector.hpp"
#include "flash/op_sequences.hpp"

namespace parabit::flash {

/** The two logical pages stored on one wordline. */
struct WordlineData
{
    const BitVector *lsb = nullptr; ///< LSB page (nullptr reads as all-1)
    const BitVector *msb = nullptr; ///< MSB page (nullptr reads as all-1)
};

/** A bitline whose sense amplifier is stuck at a fixed value. */
struct StuckBitline
{
    std::size_t bitline = 0;
    bool value = false;

    bool operator==(const StuckBitline &) const = default;
};

/**
 * The sensing errors of one program run.  Sensing k (0-based, in
 * program order) flips the bitlines flips[flipsEnd[k-1] .. flipsEnd[k])
 * — a bitline listed twice flips back — then pins every stuck bitline,
 * in list order, so the last entry of a bitline wins.  An empty
 * flipsEnd means no sensing flips anything.
 */
struct SenseNoise
{
    std::vector<std::uint32_t> flips;
    std::vector<std::uint32_t> flipsEnd;
    std::span<const StuckBitline> stuck;

    bool empty() const { return flips.empty() && stuck.empty(); }
};

/**
 * Run @p prog over every bitline of @p out and leave L2's OUT node in
 * it; @p out's size is the page width and every word of it is written,
 * so it may come from BitVector::forOverwrite.  Returns the number of
 * bitlines whose result @p noise changed against the clean run (the
 * injected bit errors).
 *
 * For co-located programs, @p self supplies both operand pages.
 * For location-free programs, @p wl_m holds operand M and @p wl_n
 * operand N; @p self is ignored.  Every page given must be exactly
 * @p out's width, and @p prog must begin with an initialisation; both
 * are checked in every build.
 */
std::size_t executeProgram(const MicroProgram &prog, const WordlineData &self,
                           const WordlineData &wl_m, const WordlineData &wl_n,
                           BitVector &out, const SenseNoise &noise = {});

/**
 * Convenience: execute @p op functionally on two operand pages using the
 * full circuit model and return the result page.  Co-located semantics:
 * @p x is the LSB operand, @p y the MSB operand.
 */
BitVector executeCoLocated(BitwiseOp op, const BitVector &x,
                           const BitVector &y, const SenseNoise &noise = {});

/**
 * Convenience: location-free execution.  @p m is the operand stored in
 * the MSB page of one wordline, @p n the operand in the LSB page of
 * another; @p m_companion / @p n_companion are the unrelated data sharing
 * those wordlines (defaulted to all-ones = erased-looking).
 */
BitVector executeLocationFree(BitwiseOp op, const BitVector &m,
                              const BitVector &n,
                              const BitVector *m_companion = nullptr,
                              const BitVector *n_companion = nullptr,
                              const SenseNoise &noise = {},
                              LocFreeVariant variant =
                                  LocFreeVariant::kMsbLsb);

} // namespace parabit::flash

#endif // PARABIT_FLASH_LATCH_ARRAY_HPP_
