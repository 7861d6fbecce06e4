/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths: the
 * vectorized latch-array execution (bits computed per second through the
 * full circuit model), FTL write/GC throughput, and the event-engine
 * scheduling rate.  These measure the *simulator's* host performance,
 * complementing the figure benches that report *simulated* device time.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "flash/latch_array.hpp"
#include "parabit/device.hpp"
#include "ssd/event_engine.hpp"

namespace {

using namespace parabit;

BitVector
randomBits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    BitVector v(n);
    for (auto &w : v.words())
        w = rng.next();
    v.maskTail();
    return v;
}

void
BM_LatchArrayCoLocated(benchmark::State &state)
{
    const auto op = static_cast<flash::BitwiseOp>(state.range(0));
    const std::size_t bits = 8 * 1024 * 8; // one 8 KB page
    const BitVector x = randomBits(bits, 1);
    const BitVector y = randomBits(bits, 2);
    flash::LatchArray la(bits);
    for (auto _ : state) {
        la.execute(flash::coLocatedProgram(op),
                   flash::WordlineData{&x, &y});
        benchmark::DoNotOptimize(la.out().words().data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_LatchArrayCoLocated)
    ->Arg(static_cast<int>(flash::BitwiseOp::kAnd))
    ->Arg(static_cast<int>(flash::BitwiseOp::kXor))
    ->Arg(static_cast<int>(flash::BitwiseOp::kXnor));

void
BM_LatchArrayLocationFree(benchmark::State &state)
{
    const std::size_t bits = 8 * 1024 * 8;
    const BitVector m = randomBits(bits, 3);
    const BitVector n = randomBits(bits, 4);
    for (auto _ : state) {
        BitVector out =
            flash::executeLocationFree(flash::BitwiseOp::kXor, m, n);
        benchmark::DoNotOptimize(out.words().data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_LatchArrayLocationFree);

void
BM_FtlWritePath(benchmark::State &state)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    core::ParaBitDevice dev(cfg);
    std::uint64_t lpn = 0;
    const std::uint64_t span = dev.ssd().ftl().logicalPages() / 2;
    for (auto _ : state) {
        dev.writeMeta(lpn % span, 1);
        ++lpn;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlWritePath);

void
BM_ParaBitOpEndToEnd(benchmark::State &state)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    core::ParaBitDevice dev(cfg);
    const std::size_t bits = cfg.geometry.pageBits();
    std::vector<BitVector> x{randomBits(bits, 5)}, y{randomBits(bits, 6)};
    dev.writeData(0, x);
    dev.writeData(100, y);
    for (auto _ : state) {
        auto r = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                             core::Mode::kReAllocate);
        benchmark::DoNotOptimize(r.stats.senseOps);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParaBitOpEndToEnd);

void
BM_EventEngineThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        ssd::EventEngine e;
        int acc = 0;
        for (std::uint64_t i = 0; i < 1000; ++i)
            e.schedule(static_cast<Tick>(i * 7 % 997), 0, 0, i);
        e.run([&acc](const ssd::EventEngine::Event &) { ++acc; });
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1000);
}
BENCHMARK(BM_EventEngineThroughput);

} // namespace

BENCHMARK_MAIN();
