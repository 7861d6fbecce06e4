/**
 * @file
 * Test-only reference for the page-wide latch kernel: the block walk
 * that executeProgram() used before it sensed a page as its program's
 * truth table, kept verbatim.  It runs the whole program over the page
 * in blocks of 64 words (4096 bitlines), keeps the block's C and B
 * words on the stack, applies each sensing's flips and then the stuck
 * bitlines to SO, and writes NOT B into the result page.  The
 * differential test checks the table kernel against it bit for bit.
 */

#ifndef PARABIT_TESTS_FLASH_BLOCK_KERNEL_REFERENCE_HPP_
#define PARABIT_TESTS_FLASH_BLOCK_KERNEL_REFERENCE_HPP_

#include "flash/latch_array.hpp"

namespace parabit::flash::reference {

/** executeProgram()'s contract, computed by the 64-word block walk. */
void executeProgram(const MicroProgram &prog, const WordlineData &self,
                    const WordlineData &wl_m, const WordlineData &wl_n,
                    BitVector &out, const SenseNoise &noise = {});

} // namespace parabit::flash::reference

#endif // PARABIT_TESTS_FLASH_BLOCK_KERNEL_REFERENCE_HPP_
