/**
 * @file
 * Self-tests of the benchmark's own measuring code, run at the start of
 * every run (and alone with --self-test): the oracle must flag a single
 * flipped bit, a non-OK status must count in the error rate, and the
 * tail statistic must follow the ten-samples-beyond rule.
 */

#ifndef PERFBENCH_SELFTEST_HPP_
#define PERFBENCH_SELFTEST_HPP_

#include <ostream>

namespace perfbench {

/** @return true when every check passed; failures are written to @p err. */
bool runSelfTests(std::ostream &err);

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_HPP_
