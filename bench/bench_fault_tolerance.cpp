/**
 * @file
 * Reliability-ladder overhead and graceful degradation under injected
 * faults (paper Section 5.8: ParaBit results bypass ECC, so the
 * controller must detect and recover on its own).
 *
 * Three tables:
 *  1. Ladder overhead on a fault-free device: policy off vs 1/3/5-vote
 *     rungs vs the forced host-side fallback, in latency per op.
 *  2. Behaviour per injected fault class: detections, fallbacks,
 *     retired blocks, and whether every delivered result page matched
 *     the host-computed reference (zero silent corruption).
 *  3. Replayability: the same seed must give byte-identical results and
 *     an identical fault-schedule fingerprint.
 */

#include <cinttypes>
#include <functional>
#include <string>
#include <vector>

#include "bench/common/report.hpp"
#include "common/rng.hpp"
#include "parabit/device.hpp"
#include "ssd/fault_injector.hpp"

namespace {

using namespace parabit;
using namespace parabit::core;

constexpr std::uint32_t kPages = 16;

ssd::SsdConfig
noisyTiny(std::uint64_t seed, double errors_per_page)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    // Double the per-plane block budget: the fault rows retire whole
    // planes' worth of blocks and the sweep still needs free wordline
    // pairs for reallocation.
    cfg.geometry.blocksPerPlane = 16;
    cfg.seed = seed;
    cfg.errors.observedErrorsAtRef = errors_per_page;
    cfg.errors.wordlineBits = static_cast<double>(cfg.geometry.pageBits());
    cfg.errors.refPeCycles = 1.0;
    cfg.errors.decadesOverLife = 0.0;
    return cfg;
}

std::vector<BitVector>
randomPages(const ssd::SsdConfig &cfg, std::uint32_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (std::uint32_t p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

BitVector
cpuRef(flash::BitwiseOp op, const BitVector &x, const BitVector &y)
{
    switch (op) {
      case flash::BitwiseOp::kAnd: return x & y;
      case flash::BitwiseOp::kOr: return x | y;
      case flash::BitwiseOp::kXor: return x ^ y;
      case flash::BitwiseOp::kXnor: return ~(x ^ y);
      case flash::BitwiseOp::kNand: return ~(x & y);
      case flash::BitwiseOp::kNor: return ~(x | y);
      default: return ~x;
    }
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint64_t
resultHash(const ExecResult &r)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = fnv1a(h, static_cast<std::uint64_t>(r.status));
    for (const auto &p : r.pages) {
        h = fnv1a(h, p.size());
        for (const auto w : p.words())
            h = fnv1a(h, w);
    }
    return h;
}

struct Rig
{
    /** @param prep runs before the operand writes (e.g. to inject
     *  faults the initial write traffic should already see). */
    explicit Rig(std::uint64_t seed, double noise,
                 const std::function<void(ParaBitDevice &)> &prep = {})
        : dev(noisyTiny(seed, noise)),
          x(randomPages(dev.ssd().config(), kPages, seed ^ 1)),
          y(randomPages(dev.ssd().config(), kPages, seed ^ 2))
    {
        if (prep)
            prep(dev);
        dev.writeData(0, x);
        dev.writeData(100, y);
    }

    void
    enable(int votes)
    {
        ReliabilityPolicy p;
        p.enabled = true;
        p.initialVotes = votes;
        dev.controller().setReliability(p);
    }

    struct SweepOut
    {
        ExecStats stats;
        double usPerOp = 0;
        std::uint64_t mismatches = 0;
        ExecStatus worst = ExecStatus::kOk;
        std::uint64_t hash = 0xCBF29CE484222325ull;
    };

    /** All six binary ops over the operand ranges, checked vs host. */
    SweepOut
    sweep()
    {
        static const flash::BitwiseOp kOps[] = {
            flash::BitwiseOp::kAnd,  flash::BitwiseOp::kOr,
            flash::BitwiseOp::kXor,  flash::BitwiseOp::kXnor,
            flash::BitwiseOp::kNand, flash::BitwiseOp::kNor,
        };
        SweepOut out;
        Tick busy = 0;
        for (const auto op : kOps) {
            ExecResult r =
                dev.bitwise(op, 0, 100, kPages, Mode::kReAllocate);
            busy += r.stats.elapsed();
            out.worst = std::max(out.worst, r.status);
            for (std::uint32_t p = 0; p < kPages; ++p) {
                const bool have =
                    p < r.pages.size() && !r.pages[p].empty();
                if (have && r.pages[p] != cpuRef(op, x[p], y[p]))
                    ++out.mismatches;
                if (!have && r.status == ExecStatus::kOk)
                    ++out.mismatches; // withheld data without an error
            }
            out.stats.accumulate(r.stats);
            out.hash = fnv1a(out.hash, resultHash(r));
        }
        out.usPerOp = static_cast<double>(busy) /
                      (std::size(kOps) * double(ticks::kMicrosecond));
        return out;
    }

    void
    faultAllPlanes(ssd::FaultClass cls, double rber_mult = 4.0)
    {
        for (flash::PlaneIndex p = 0;
             p < dev.ssd().geometry().planesTotal(); ++p) {
            ssd::FaultSpec s;
            s.cls = cls;
            s.plane = p;
            s.rberMultiplier = rber_mult;
            s.stuckCount = 4;
            dev.ssd().injectFault(s);
        }
        dev.controller().invalidatePlaneTrust();
    }

    ParaBitDevice dev;
    std::vector<BitVector> x, y;
};

void
ladderOverhead()
{
    bench::section("ladder overhead, fault-free device (16-page ops)");
    bench::tableHeader("configuration", "us/op");

    Rig base(11, 0.05);
    const double off = base.sweep().usPerOp;
    bench::row("reliability off (legacy path)", off, off);
    for (const int votes : {1, 3, 5}) {
        Rig r(11, 0.05);
        r.enable(votes);
        const auto s = r.sweep();
        bench::row("ladder, " + std::to_string(votes) + "-vote rung", off,
                   s.usPerOp);
    }
    // Stuck bitlines on every plane defeat in-flash compute entirely:
    // the self-test routes everything to the ECC-clean host path.
    Rig fb(11, 0.05);
    fb.enable(1);
    fb.faultAllPlanes(ssd::FaultClass::kStuckBitline);
    const auto s = fb.sweep();
    bench::row("host fallback (plane self-test failed)", off, s.usPerOp);
    bench::note("ratio column = overhead vs the reliability-off baseline");
    bench::note("the tiny 64 B-page geometry understates the in-flash "
                "advantage, so the host fallback can come out faster in "
                "latency here; it spends channel bandwidth instead");
}

void
perFaultClass()
{
    bench::section("behaviour per injected fault class");
    std::printf("%-18s %9s %9s %9s %9s %9s %7s  %s\n", "fault class",
                "detects", "selftest", "fallback", "retired", "mismatch",
                "exact", "worst status");

    const auto report = [](const char *name, const Rig::SweepOut &s,
                           std::uint64_t retired) {
        std::printf("%-18s %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                    " %9" PRIu64 " %9" PRIu64 " %7s  %s\n",
                    name, s.stats.detections, s.stats.selfTests,
                    s.stats.hostFallbacks, retired, s.mismatches,
                    s.mismatches == 0 ? "yes" : "NO",
                    execStatusName(s.worst));
    };

    {
        Rig r(21, 2.0);
        r.enable(1);
        report("none (baseline)", r.sweep(),
               r.dev.ssd().ftl().retiredBlocks());
    }
    {
        // Mild enough that the self-test still trusts the planes; the
        // parity/duplicate rung and vote escalation do the work.
        Rig r(22, 1.0);
        r.enable(1);
        r.faultAllPlanes(ssd::FaultClass::kElevatedRber, 4.0);
        report("elevated RBER", r.sweep(),
               r.dev.ssd().ftl().retiredBlocks());
    }
    {
        Rig r(23, 0.0);
        r.enable(1);
        r.faultAllPlanes(ssd::FaultClass::kStuckBitline);
        report("stuck bitlines", r.sweep(),
               r.dev.ssd().ftl().retiredBlocks());
    }
    {
        // Every program into plane 0 fails, from the first write on:
        // the operand writes discover the bad blocks, the FTL retires
        // them and remaps onto healthy planes, and the sweep then runs
        // on the degraded device.
        Rig r(24, 0.0, [](ParaBitDevice &d) {
            ssd::FaultSpec s;
            s.cls = ssd::FaultClass::kProgramFailure;
            s.plane = 0;
            s.failPeriod = 1;
            d.ssd().injectFault(s);
        });
        r.enable(1);
        report("program failure", r.sweep(),
               r.dev.ssd().ftl().retiredBlocks());
    }
    {
        Rig r(25, 0.0);
        r.enable(1);
        const auto yaddr = r.dev.ssd().ftl().lookup(100);
        ssd::FaultSpec s;
        s.cls = ssd::FaultClass::kDeadPlane;
        s.plane = flash::planeIndex(r.dev.ssd().geometry(), *yaddr);
        r.dev.ssd().injectFault(s);
        r.dev.controller().invalidatePlaneTrust();
        report("dead plane", r.sweep(), r.dev.ssd().ftl().retiredBlocks());
    }
    bench::note("'exact' = every delivered page equals the host-computed "
                "reference, and data is only withheld under a typed "
                "error (zero silent corruption)");
}

void
replayability()
{
    bench::section("replayability of a seeded random fault run");
    const auto run = [](std::uint64_t seed) {
        Rig r(seed, 2.0);
        r.enable(1);
        for (const auto &f : ssd::FaultInjector::randomSchedule(
                 r.dev.ssd().geometry(), seed, 6))
            r.dev.ssd().injectFault(f);
        r.dev.controller().invalidatePlaneTrust();
        const auto s = r.sweep();
        return std::pair{r.dev.ssd().faultInjector().scheduleFingerprint(),
                         s.hash};
    };
    const auto a = run(777);
    const auto b = run(777);
    std::printf("  run A: schedule %016" PRIx64 "  results %016" PRIx64
                "\n",
                a.first, a.second);
    std::printf("  run B: schedule %016" PRIx64 "  results %016" PRIx64
                "\n",
                b.first, b.second);
    std::printf("  byte-reproducible: %s\n",
                a == b ? "yes" : "NO — determinism regression");
}

} // namespace

int
main()
{
    bench::banner("Fault tolerance: detect-and-escalate ladder, graceful "
                  "degradation, replayable fault runs");
    ladderOverhead();
    perFaultClass();
    replayability();
    return 0;
}
