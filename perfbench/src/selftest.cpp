#include "selftest.hpp"

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

using parabit::BitVector;
using parabit::flash::BitwiseOp;

namespace {

struct Checker
{
    std::ostream &err;
    int failures = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            ++failures;
            err << "perfbench self-test failed: " << what << "\n";
        }
    }
};

void
oracleFlagsOneFlippedBit(Checker &c)
{
    parabit::Rng rng(7);
    const auto x = randomPages(3, 4096, rng);
    const auto y = randomPages(3, 4096, rng);
    std::vector<BitVector> want;
    for (std::size_t i = 0; i < x.size(); ++i)
        want.push_back(hostBitwise(BitwiseOp::kXor, x[i], y[i]));

    std::vector<BitVector> got = want;
    c.expect(checkPages(got, want).wrongPages == 0,
             "identical pages reported wrong");
    got[1].set(2049, !got[1].get(2049));
    const PageVerdict v = checkPages(got, want);
    c.expect(v.wrongPages == 1 && v.unexplained == 1,
             "one flipped bit not flagged as one wrong page");

    Tally t;
    t.note(true, v, got.size());
    c.expect(t.wrongResults == 1 && t.errorRate() == 1.0 &&
                 t.unexpected() == 1,
             "a wrong result with OK status not counted as a failure");

    // A predicted defect site still counts in the error rate.
    const PageVerdict pv = checkPages(got, want, {false, true, false});
    Tally tp;
    tp.note(true, pv, got.size());
    c.expect(pv.unexplained == 0 && tp.errorRate() == 1.0 &&
                 tp.predictedWrong == 1 && tp.unexpected() == 0,
             "a predicted wrong page not counted in error_rate");

    std::vector<BitVector> short_result(want.begin(), want.begin() + 2);
    c.expect(checkPages(short_result, want).wrongPages == 1,
             "a missing result page not flagged");
}

void
badStatusCountsAsError(Checker &c)
{
    Tally t;
    t.note(true, {}, 4);
    t.note(false, {}, 0);
    c.expect(t.attempted == 2 && t.badStatus == 1 && t.errorRate() == 0.5 &&
                 t.unexpected() == 1,
             "a non-OK status not counted in error_rate");
}

void
tailFollowsTenSampleRule(Checker &c)
{
    std::vector<double> v;
    for (int i = 1; i <= 10; ++i)
        v.push_back(i);
    c.expect(!tailOf(v).defined, "tail defined with only 10 samples");

    v.push_back(11);
    Tail t = tailOf(v);
    c.expect(t.defined && t.value == 1 && t.beyond == 10,
             "tail of 11 samples is not the smallest");

    v.clear();
    for (int i = 1000; i >= 1; --i)
        v.push_back(i);
    t = tailOf(v);
    c.expect(t.defined && t.value == 990 && t.beyond == 10 &&
                 t.percentile == 99.0,
             "tail of 1..1000 is not p99 = 990");

    c.expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
             "median");
}

void
oracleMatchesTruthTables(Checker &c)
{
    BitVector x(4), y(4);
    // (x, y) over bits 0..3 = (0,0), (0,1), (1,0), (1,1).
    x.set(2, true);
    x.set(3, true);
    y.set(1, true);
    y.set(3, true);
    const struct
    {
        BitwiseOp op;
        const char *bits;
    } rows[] = {
        {BitwiseOp::kAnd, "0001"},  {BitwiseOp::kOr, "0111"},
        {BitwiseOp::kXor, "0110"},  {BitwiseOp::kXnor, "1001"},
        {BitwiseOp::kNand, "1110"}, {BitwiseOp::kNor, "1000"},
    };
    for (const auto &r : rows) {
        const BitVector z = hostBitwise(r.op, x, y);
        bool ok = z.size() == 4;
        for (std::size_t i = 0; ok && i < 4; ++i)
            ok = z.get(i) == (r.bits[i] == '1');
        c.expect(ok, std::string("oracle truth table of ") +
                         parabit::flash::opName(r.op));
    }
}

void
histogramMedianInterpolates(Checker &c)
{
    parabit::Histogram a(0.0, 100.0, 10), b(0.0, 100.0, 10);
    for (int i = 0; i < 10; ++i)
        a.sample(15.0); // bucket [10, 20)
    for (int i = 0; i < 10; ++i)
        b.sample(35.0); // bucket [30, 40)
    const double m = histogramMedian({&a, &b});
    c.expect(m >= 10.0 && m <= 40.0, "pooled histogram median out of range");
    c.expect(histogramMedian({&a}) >= 10.0 && histogramMedian({&a}) <= 20.0,
             "histogram median outside its bucket");
}

} // namespace

bool
runSelfTests(std::ostream &err)
{
    Checker c{err};
    oracleFlagsOneFlippedBit(c);
    badStatusCountsAsError(c);
    tailFollowsTenSampleRule(c);
    oracleMatchesTruthTables(c);
    histogramMedianInterpolates(c);
    return c.failures == 0;
}

} // namespace perfbench
