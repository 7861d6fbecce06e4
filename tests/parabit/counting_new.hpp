/**
 * @file
 * Test-only replacement of the global operator new and delete that
 * counts heap allocations.  Linking counting_new.cpp into a test binary
 * replaces them for the whole binary, so only a binary of its own may
 * use it.  The operators live in their own source file so that no
 * caller inlines them.
 */

#ifndef PARABIT_TESTS_PARABIT_COUNTING_NEW_HPP_
#define PARABIT_TESTS_PARABIT_COUNTING_NEW_HPP_

#include <cstdint>

namespace parabit::test {

/** Heap allocations made through operator new so far. */
std::uint64_t heapAllocations();

} // namespace parabit::test

#endif // PARABIT_TESTS_PARABIT_COUNTING_NEW_HPP_
