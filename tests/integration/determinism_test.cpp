/**
 * @file
 * Determinism regression tests: the whole reliability layer is a pure
 * function of the seed.  Same seed => identical error-model bit-flip
 * pattern, identical fault schedule (fingerprint), and byte-for-byte
 * identical execution results — which is what makes fault runs
 * replayable for debugging.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "parabit/device.hpp"
#include "ssd/fault_injector.hpp"

namespace parabit::core {
namespace {

ssd::SsdConfig
noisyTiny(std::uint64_t seed)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.seed = seed;
    cfg.errors.observedErrorsAtRef = 8.0;
    cfg.errors.wordlineBits = static_cast<double>(cfg.geometry.pageBits());
    cfg.errors.refPeCycles = 1.0;
    cfg.errors.decadesOverLife = 0.0;
    return cfg;
}

std::vector<BitVector>
randomPages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (int p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

TEST(Determinism, ErrorModelPatternRepeatsAcrossIdenticalChips)
{
    const auto mk = [](std::uint64_t seed) {
        flash::FlashGeometry g = flash::FlashGeometry::tiny();
        flash::ErrorModelConfig ec;
        ec.observedErrorsAtRef = 30.0;
        ec.wordlineBits = static_cast<double>(g.pageBits());
        ec.refPeCycles = 1.0;
        ec.decadesOverLife = 0.0;
        return std::make_unique<flash::Chip>(g, true, ec, seed);
    };
    auto a = mk(123), b = mk(123), c = mk(124);

    Rng rng(9);
    BitVector x(a->geometry().pageBits()), y(a->geometry().pageBits());
    for (std::size_t i = 0; i < x.size(); ++i) {
        x.set(i, rng.chance(0.5));
        y.set(i, rng.chance(0.5));
    }
    for (flash::Chip *chip : {a.get(), b.get(), c.get()}) {
        chip->programPage({0, 0, 0, 0, false}, flash::makePayload(x));
        chip->programPage({0, 0, 0, 0, true}, flash::makePayload(y));
    }

    // The injected-error pattern is part of the deterministic contract:
    // run for run, same-seed chips flip the same bits.
    bool diverged_from_c = false;
    for (int t = 0; t < 20; ++t) {
        const BitVector ra =
            a->opCoLocated(flash::BitwiseOp::kXor, {0, 0, 0, 0, false});
        const BitVector rb =
            b->opCoLocated(flash::BitwiseOp::kXor, {0, 0, 0, 0, false});
        const BitVector rc =
            c->opCoLocated(flash::BitwiseOp::kXor, {0, 0, 0, 0, false});
        EXPECT_EQ(ra, rb) << "same-seed chips diverged at run " << t;
        diverged_from_c |= ra != rc;
    }
    EXPECT_TRUE(diverged_from_c)
        << "a different seed should produce a different error pattern";
}

TEST(Determinism, InjectorScheduleAndFingerprintFollowTheSeed)
{
    ParaBitDevice d1(noisyTiny(555));
    ParaBitDevice d2(noisyTiny(555));
    ParaBitDevice d3(noisyTiny(556));

    const auto sched = ssd::FaultInjector::randomSchedule(
        d1.ssd().geometry(), d1.ssd().config().seed, 10);
    for (const auto &f : sched) {
        d1.ssd().injectFault(f);
        d2.ssd().injectFault(f);
    }
    const auto sched3 = ssd::FaultInjector::randomSchedule(
        d3.ssd().geometry(), d3.ssd().config().seed, 10);
    for (const auto &f : sched3)
        d3.ssd().injectFault(f);

    EXPECT_EQ(d1.ssd().faultInjector().scheduleFingerprint(),
              d2.ssd().faultInjector().scheduleFingerprint());
    EXPECT_NE(d1.ssd().faultInjector().scheduleFingerprint(),
              d3.ssd().faultInjector().scheduleFingerprint());
}

TEST(Determinism, FaultedExecutionIsByteForByteReproducible)
{
    const auto run = [](std::uint64_t seed) {
        ParaBitDevice dev(noisyTiny(seed));
        ReliabilityPolicy p;
        p.enabled = true;
        dev.controller().setReliability(p);

        const auto x = randomPages(dev.ssd().config(), 4, 1);
        const auto y = randomPages(dev.ssd().config(), 4, 2);
        dev.writeData(0, x);
        dev.writeData(100, y);
        for (const auto &f : ssd::FaultInjector::randomSchedule(
                 dev.ssd().geometry(), seed ^ 0xF001, 4))
            dev.ssd().injectFault(f);
        dev.controller().invalidatePlaneTrust();

        ExecResult r = dev.bitwise(flash::BitwiseOp::kXor, 0, 100, 4,
                                   Mode::kReAllocate);
        return std::tuple{std::move(r.pages), r.status, r.stats.end,
                          r.stats.hostFallbacks, r.stats.detections,
                          dev.ssd().faultInjector().scheduleFingerprint()};
    };

    const auto a = run(777);
    const auto b = run(777);
    EXPECT_EQ(a, b) << "identical seeds must replay identically: pages, "
                       "status, timing and counters";
}

} // namespace
} // namespace parabit::core
