#include "flash/read_retry.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/logging.hpp"

namespace parabit::flash {

namespace {

/** Shared precondition checks for the voting helpers. */
void
checkRuns(const std::vector<BitVector> &runs, const char *who)
{
    if (runs.empty())
        panic(std::string(who) + ": no runs");
    if (runs.size() % 2 == 0)
        panic(std::string(who) + ": vote count must be odd, got " +
              std::to_string(runs.size()));
    for (const auto &r : runs)
        if (r.size() != runs[0].size())
            panic(std::string(who) + ": mismatched run sizes (" +
                  std::to_string(r.size()) + " vs " +
                  std::to_string(runs[0].size()) + ")");
}

} // namespace

BitVector
majorityVote(const std::vector<BitVector> &runs)
{
    checkRuns(runs, "majorityVote");
    if (runs.size() == 1)
        return runs[0];

    // Word-parallel counting: for each bit, out = 1 iff more than half
    // of the runs have it set.  Votes are small (3..7), so a simple
    // per-run accumulation over counters expressed as bit-sliced adders
    // would be overkill; count per word in a small loop instead.
    BitVector out(runs[0].size());
    const std::size_t words = runs[0].words().size();
    const int half = static_cast<int>(runs.size()) / 2;
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t result = 0;
        for (int bit = 0; bit < 64; ++bit) {
            const std::uint64_t mask = std::uint64_t{1} << bit;
            int ones = 0;
            for (const auto &r : runs)
                ones += (r.words()[w] & mask) ? 1 : 0;
            if (ones > half)
                result |= mask;
        }
        out.words()[w] = result;
    }
    out.maskTail();
    return out;
}

std::size_t
lowMarginCount(const std::vector<BitVector> &runs, int min_margin)
{
    checkRuns(runs, "lowMarginCount");
    const int k = static_cast<int>(runs.size());
    std::size_t low = 0;
    const std::size_t words = runs[0].words().size();
    for (std::size_t w = 0; w < words; ++w) {
        // Skip words where every run agrees: margin there is k.
        bool uniform = true;
        for (const auto &r : runs)
            if (r.words()[w] != runs[0].words()[w]) {
                uniform = false;
                break;
            }
        if (uniform) {
            if (k < min_margin)
                low += 64; // every bit is low-margin (k==1 edge case)
            continue;
        }
        for (int bit = 0; bit < 64; ++bit) {
            const std::uint64_t mask = std::uint64_t{1} << bit;
            int ones = 0;
            for (const auto &r : runs)
                ones += (r.words()[w] & mask) ? 1 : 0;
            const int margin = std::abs(2 * ones - k);
            if (margin < min_margin)
                ++low;
        }
    }
    // The tail beyond size() is masked identically in every run, so the
    // uniform-word fast path already excluded it except when k itself is
    // below the margin; clamp to the logical width in that case.
    return std::min(low, runs[0].size());
}

namespace {

VotedResult
vote(std::vector<BitVector> runs, const BitVector &clean)
{
    VotedResult v;
    v.votes = static_cast<int>(runs.size());
    v.out = majorityVote(runs);
    v.totalBitErrors = static_cast<int>((v.out ^ clean).popcount());
    return v;
}

} // namespace

VotedResult
opCoLocatedVoted(Chip &chip, BitwiseOp op, const PhysPageAddr &a, int votes)
{
    if (votes < 1 || votes % 2 == 0)
        panic("opCoLocatedVoted: vote count must be odd and positive");
    std::vector<BitVector> runs;
    runs.reserve(static_cast<std::size_t>(votes));
    for (int k = 0; k < votes; ++k)
        runs.push_back(chip.opCoLocated(op, a));
    // The clean reference: majority over many runs converges to it, but
    // for error accounting re-run once against an ideal twin is not
    // available here; use the op recomputed from the stored pages.
    Block &blk = chip.plane(a.die, a.plane).block(a.block);
    BitVector clean(chip.geometry().pageBits());
    executeProgram(coLocatedProgram(op), blk.wordlineData(a.wordline), {}, {},
                   clean);
    return vote(std::move(runs), clean);
}

VotedResult
opLocationFreeVoted(Chip &chip, BitwiseOp op, const PhysPageAddr &m,
                    const PhysPageAddr &n, int votes, LocFreeVariant variant)
{
    if (votes < 1 || votes % 2 == 0)
        panic("opLocationFreeVoted: vote count must be odd and positive");
    std::vector<BitVector> runs;
    runs.reserve(static_cast<std::size_t>(votes));
    for (int k = 0; k < votes; ++k)
        runs.push_back(chip.opLocationFree(op, m, n, nullptr, variant));
    Block &bm = chip.plane(m.die, m.plane).block(m.block);
    Block &bn = chip.plane(n.die, n.plane).block(n.block);
    BitVector clean(chip.geometry().pageBits());
    executeProgram(locationFreeProgram(op, variant), {},
                   bm.wordlineData(m.wordline), bn.wordlineData(n.wordline),
                   clean);
    return vote(std::move(runs), clean);
}

int
recommendedVotes(double rber)
{
    for (const RetryRung &r : kRetryLadder)
        if (rber < r.maxRber)
            return r.votes;
    return kRetryVotesMax;
}

} // namespace parabit::flash
