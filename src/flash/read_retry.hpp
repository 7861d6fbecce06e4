/**
 * @file
 * Majority-vote redundant execution of ParaBit operations.
 *
 * Section 5.8 notes that ParaBit results bypass ECC (the operation
 * happens after sensing, where ECC cannot check), and that real devices
 * mitigate sensing errors with read-retry / voltage-calibration reads.
 * For an in-flash *computation* the natural analogue is redundant
 * execution: run the operation k times and take a per-bitline majority
 * vote of the outputs.  With independent per-sensing error probability
 * p per execution, the voted error rate drops from O(p) to O(p^2) for
 * k = 3 — two executions must err on the same bitline.
 *
 * The cost is k times the sensing latency/energy, which
 * bench_ablation_retry quantifies against the error-rate gain.
 */

#ifndef PARABIT_FLASH_READ_RETRY_HPP_
#define PARABIT_FLASH_READ_RETRY_HPP_

#include "flash/chip.hpp"

namespace parabit::flash {

/** Result of a majority-voted execution. */
struct VotedResult
{
    BitVector out;
    int votes = 0;         ///< executions performed
    int totalBitErrors = 0; ///< residual errors after voting (vs clean)
};

/**
 * Execute a co-located operation @p votes times (odd) on @p chip and
 * majority-vote the outputs per bitline.
 */
VotedResult opCoLocatedVoted(Chip &chip, BitwiseOp op, const PhysPageAddr &a,
                             int votes);

/** Location-free counterpart of opCoLocatedVoted(). */
VotedResult opLocationFreeVoted(Chip &chip, BitwiseOp op,
                                const PhysPageAddr &m, const PhysPageAddr &n,
                                int votes,
                                LocFreeVariant variant =
                                    LocFreeVariant::kMsbLsb);

/**
 * Per-bitline majority of an odd number of equal-size vectors.
 * Panics (clear diagnostic, no UB) on an empty run set, an even vote
 * count, or mismatched vector sizes.
 */
BitVector majorityVote(const std::vector<BitVector> &runs);

/**
 * Number of bitlines whose vote margin (|ones - zeros| across the runs)
 * is below @p min_margin.  A low-margin bit was decided by a near-tie,
 * so its majority value is suspect; the reliability ladder escalates
 * while any remain.  Preconditions as majorityVote().
 */
std::size_t lowMarginCount(const std::vector<BitVector> &runs,
                           int min_margin);

/** One rung of the retry ladder: up to @p maxRber (exclusive) raw
 *  per-sensing error rate, @p votes redundant executions suffice. */
struct RetryRung
{
    double maxRber;
    int votes;
};

/**
 * The retry-ladder threshold table, mapping an estimated raw per-sensing
 * RBER to a recommended vote count.  The rungs are anchored to the
 * anchor wordline budget of <= 0.1 expected voted output errors per
 * 65536-bit page for a 7-sensing chain with propagation survival 0.404
 * (per-bit per-execution error q = 0.404 * 7 * p = 2.83 p):
 *
 *  - 1 vote  while 65536 * q        <= 0.1, i.e. p < ~5.4e-7 -> 1e-6 rung;
 *  - 3 votes while 65536 * 3 * q^2  <= 0.1, i.e. p < ~2.5e-4 -> 1e-4 rung;
 *  - 5 votes for the next decade span; 7 beyond.
 *
 * The scrubber's predicted RBER (Chip::predictedRber, which folds in
 * disturb and retention wear) is the intended input, so refreshing a
 * wordline drops it back down the ladder.
 */
inline constexpr RetryRung kRetryLadder[] = {
    {1e-6, 1},
    {1e-4, 3},
    {1e-2, 5},
};

/** Maximum vote count, recommended above the last ladder rung. */
inline constexpr int kRetryVotesMax = 7;

/** Vote count the ladder recommends for raw per-sensing rate @p rber. */
int recommendedVotes(double rber);

} // namespace parabit::flash

#endif // PARABIT_FLASH_READ_RETRY_HPP_
