/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths: ParaBit
 * page ops as the simulator runs them (Chip::opCoLocated and
 * opLocationFree on a functional chip with 8 KiB pages: the latch
 * kernel plus the result page, bytes per second of one page), one
 * ReAlloc page op end to end on 8 KiB pages, FTL write/GC throughput,
 * and the event-engine scheduling rate.  These
 * measure the *simulator's* host performance, complementing the figure
 * benches that report *simulated* device time.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.hpp"
#include "flash/chip.hpp"
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

/** Functional chip with 8 KiB pages, ideal sensing, random data on the
 *  pages the latch benchmarks sense. */
flash::Chip
latchChip()
{
    flash::FlashGeometry g = flash::FlashGeometry::tiny();
    g.pageBytes = 8 * bytes::kKiB;
    flash::Chip chip(g, true);
    std::uint64_t seed = 1;
    for (const flash::ChipPageAddr &a :
         {flash::ChipPageAddr{0, 0, 0, 0, false},
          flash::ChipPageAddr{0, 0, 0, 0, true},
          flash::ChipPageAddr{0, 0, 1, 0, false},
          flash::ChipPageAddr{0, 0, 2, 0, true}}) {
        chip.programPage(a,
                         flash::makePayload(randomBits(g.pageBits(), seed++)));
    }
    return chip;
}

void
setPageBytes(benchmark::State &state, const flash::Chip &chip)
{
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(
                                chip.geometry().pageBytes));
}

void
BM_LatchArrayCoLocated(benchmark::State &state)
{
    const auto op = static_cast<flash::BitwiseOp>(state.range(0));
    flash::Chip chip = latchChip();
    for (auto _ : state) {
        BitVector out = chip.opCoLocated(op, {0, 0, 0, 0, false});
        benchmark::DoNotOptimize(out.words().data());
        benchmark::ClobberMemory();
    }
    setPageBytes(state, chip);
}
BENCHMARK(BM_LatchArrayCoLocated)
    ->Arg(static_cast<int>(flash::BitwiseOp::kAnd))
    ->Arg(static_cast<int>(flash::BitwiseOp::kXor))
    ->Arg(static_cast<int>(flash::BitwiseOp::kXnor));

void
BM_LatchArrayLocationFree(benchmark::State &state)
{
    flash::Chip chip = latchChip();
    for (auto _ : state) {
        BitVector out = chip.opLocationFree(flash::BitwiseOp::kXor,
                                            {0, 0, 2, 0, true},
                                            {0, 0, 1, 0, false});
        benchmark::DoNotOptimize(out.words().data());
        benchmark::ClobberMemory();
    }
    setPageBytes(state, chip);
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

/**
 * One ParaBit-ReAlloc AND of an 8 KiB page pair through the whole stack
 * (controller, FTL, scheduler, chip), result page included.  Each op
 * leaves its two scratch copies mapped until the controller releases
 * them (ROADMAP item 1), so the device is rebuilt, untimed, long before
 * the copies could fill it; an op that fails ends the run with an
 * error instead of timing a failing device.
 */
void
BM_ParaBitOpEndToEnd(benchmark::State &state)
{
    constexpr int kOpsPerDevice = 200; // the device fills after ~450
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.geometry.pageBytes = 8 * bytes::kKiB;
    const std::size_t bits = cfg.geometry.pageBits();
    const std::vector<BitVector> x{randomBits(bits, 5)};
    const std::vector<BitVector> y{randomBits(bits, 6)};
    std::unique_ptr<core::ParaBitDevice> dev;
    int ops = kOpsPerDevice;
    for (auto _ : state) {
        if (ops == kOpsPerDevice) {
            state.PauseTiming();
            dev = std::make_unique<core::ParaBitDevice>(cfg);
            const bool placed = dev->writeData(0, x) && dev->writeData(100, y);
            ops = 0;
            state.ResumeTiming();
            if (!placed) {
                state.SkipWithError("operand placement failed");
                break;
            }
        }
        ++ops;
        const core::ExecResult r = dev->bitwise(
            flash::BitwiseOp::kAnd, 0, 100, 1, core::Mode::kReAllocate);
        if (r.status != core::ExecStatus::kOk) {
            state.SkipWithError("ReAlloc op did not complete OK");
            break;
        }
        benchmark::DoNotOptimize(r.pages.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(cfg.geometry.pageBytes));
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
