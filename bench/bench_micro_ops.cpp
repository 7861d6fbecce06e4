/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths: ParaBit
 * page ops as the simulator runs them (Chip::opCoLocated and
 * opLocationFree on a functional chip with 8 KiB pages: the latch
 * kernel plus the result page, bytes per second of one page, with ideal
 * and with noisy sensing), one ReAlloc page op end to end on 8 KiB
 * pages, the page op path of each mode on a timing-only paper-geometry
 * device, the scheduler's booking of op lists on the same device, FTL
 * write/GC throughput, an FTL checkpoint (one Flush), the flash array's
 * own per-page bookkeeping (program, read, erase on a timing-only chip),
 * and the event-engine scheduling rate.
 * These measure the *simulator's* host performance, complementing the
 * figure benches that report *simulated* device time.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

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

/** Functional chip with 8 KiB pages, ideal sensing unless @p errors
 *  says otherwise, random data on the pages the latch benchmarks
 *  sense. */
flash::Chip
latchChip(const flash::ErrorModelConfig &errors =
              flash::ErrorModelConfig::ideal())
{
    flash::FlashGeometry g = flash::FlashGeometry::tiny();
    g.pageBytes = 8 * bytes::kKiB;
    flash::Chip chip(g, true, errors);
    std::uint64_t seed = 1;
    for (const flash::PhysPageAddr &a :
         {flash::PhysPageAddr{0, 0, 0, 0, 0, 0, false},
          flash::PhysPageAddr{0, 0, 0, 0, 0, 0, true},
          flash::PhysPageAddr{0, 0, 0, 0, 1, 0, false},
          flash::PhysPageAddr{0, 0, 0, 0, 2, 0, true}}) {
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
        BitVector out = chip.opCoLocated(op, {0, 0, 0, 0, 0, 0, false});
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
                                            {0, 0, 0, 0, 2, 0, true},
                                            {0, 0, 0, 0, 1, 0, false});
        benchmark::DoNotOptimize(out.words().data());
        benchmark::ClobberMemory();
    }
    setPageBytes(state, chip);
}
BENCHMARK(BM_LatchArrayLocationFree);

/**
 * Co-located XOR (three sensings) with every sensing flipping each
 * bitline with probability 1e-4 at any P/E count, about 20 noisy
 * bitlines per 8 KiB page op, and the bit errors counted as the
 * controller's runSense asks for them.
 */
void
BM_LatchArrayNoisy(benchmark::State &state)
{
    flash::ErrorModelConfig errors;
    errors.decadesOverLife = 0.0; // the same rate at every P/E count
    errors.observedErrorsAtRef = 1e-4 * errors.propagationSurvival *
                                 errors.refSensings * errors.wordlineBits;
    flash::Chip chip = latchChip(errors);
    std::int64_t bit_errors = 0;
    for (auto _ : state) {
        int e = 0;
        BitVector out =
            chip.opCoLocated(flash::BitwiseOp::kXor, {0, 0, 0, 0, 0, 0, false},
                             &e);
        bit_errors += e;
        benchmark::DoNotOptimize(out.words().data());
        benchmark::ClobberMemory();
    }
    setPageBytes(state, chip);
    state.counters["bit_errors_per_op"] = benchmark::Counter(
        static_cast<double>(bit_errors), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LatchArrayNoisy);

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
 * One NVMe Flush's checkpoint on perfbench nvme_mix's device (8 planes
 * x 64 blocks x 32 wordlines, 2 KiB pages, recovery on, 4 reserved
 * blocks per plane) with range(0) LPNs mapped: each iteration
 * overwrites four hot LPNs in two map chunks, then checkpoints (the
 * image's log pages programmed, the other log half erased).
 */
void
BM_FtlCheckpoint(benchmark::State &state)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.geometry.blocksPerPlane = 64;
    cfg.geometry.wordlinesPerBlock = 32;
    cfg.geometry.pageBytes = 2048;
    cfg.recovery.enabled = true;
    cfg.recovery.reservedBlocksPerPlane = 4;
    core::ParaBitDevice dev(cfg);
    ssd::Ftl &ftl = dev.ssd().ftl();
    std::vector<ssd::PhysOp> ops;
    for (ssd::Lpn l = 0; l < static_cast<ssd::Lpn>(state.range(0)); ++l) {
        ops.clear();
        if (!ftl.writePage(l, nullptr, ops)) {
            state.SkipWithError("mapping the LPNs failed");
            return;
        }
    }
    constexpr ssd::Lpn kChunk = ssd::LpnTable::kChunkEntries;
    for (auto _ : state) {
        ops.clear();
        bool ok = true;
        for (const ssd::Lpn l : {ssd::Lpn{1}, ssd::Lpn{2}, kChunk + 1,
                                 kChunk + 2})
            ok = ftl.writePage(l, nullptr, ops) && ok;
        if (!ok || !ftl.checkpoint(ops)) {
            state.SkipWithError("overwrite or checkpoint failed");
            break;
        }
        benchmark::DoNotOptimize(ops.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlCheckpoint)->Arg(4640)->Arg(12672)->Arg(20640);

/**
 * The flash array's bookkeeping per page op, with no payloads and no
 * sensing model: on one timing-only paperSsd() chip, every iteration
 * programs all pages of 32 blocks spread over the chip's 8 planes and
 * over each plane's block range (OOB attached), reads each page once
 * (its neighbors charged with read disturb) and erases the blocks.
 * time_per_page_op is the time per program, read or erase (seconds in
 * the JSON; the console scales it, e.g. "14ns").
 */
void
BM_FlashPageCycle(benchmark::State &state)
{
    const flash::FlashGeometry g = flash::FlashGeometry::paperSsd();
    flash::Chip chip(g, false);
    constexpr std::uint32_t kBlocksPerPlane = 4;
    std::vector<flash::PhysPageAddr> blocks;
    for (std::uint32_t die = 0; die < g.diesPerChip; ++die)
        for (std::uint32_t pl = 0; pl < g.planesPerDie; ++pl)
            for (std::uint32_t k = 0; k < kBlocksPerPlane; ++k)
                blocks.push_back(
                    {0, 0, die, pl,
                     k * (g.blocksPerPlane / kBlocksPerPlane) +
                         die * g.planesPerDie + pl,
                     0, false});
    const flash::PageOob oob{7, 1, 1, false};
    for (auto _ : state) {
        for (flash::PhysPageAddr a : blocks) {
            bool ok = true;
            for (a.wordline = 0; a.wordline < g.wordlinesPerBlock; ++a.wordline)
                for (const bool msb : {false, true}) {
                    a.msb = msb;
                    ok = chip.programPage(a, nullptr, &oob) && ok;
                }
            for (a.wordline = 0; a.wordline < g.wordlinesPerBlock; ++a.wordline)
                for (const bool msb : {false, true}) {
                    a.msb = msb;
                    benchmark::DoNotOptimize(chip.readPage(a));
                }
            if (!ok || !chip.eraseBlock(a)) {
                state.SkipWithError("program or erase failed");
                return;
            }
        }
    }
    const double page_ops =
        static_cast<double>(blocks.size()) * (4 * g.wordlinesPerBlock + 1);
    state.counters["time_per_page_op"] = benchmark::Counter(
        page_ops, benchmark::Counter::kIsIterationInvariantRate |
                      benchmark::Counter::kInvert);
}
BENCHMARK(BM_FlashPageCycle);

/**
 * One XOR over one stripe (1024 page ops) on a timing-only paperSsd()
 * device, through the controller's page op path and the scheduler's
 * bookings, for the mode named by the argument (0 ParaBit, 1 ReAlloc,
 * 2 LocFree).  Each mode's operands sit in the layout it computes on:
 * a co-located pair, two whole stripes, two LSB-only stripes.
 * time_per_page_op is seconds per page op in the JSON.  ReAlloc leaves
 * its copies mapped (ROADMAP item 1), so the device is rebuilt, untimed,
 * every kOpsPerDevice ops to keep its flash state small.
 */
void
BM_PageOpTimingOnly(benchmark::State &state)
{
    constexpr int kOpsPerDevice = 256;
    const auto mode = static_cast<core::Mode>(state.range(0));
    const ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    const std::uint32_t pages = cfg.geometry.planesTotal();
    std::unique_ptr<core::ParaBitDevice> dev;
    int ops = kOpsPerDevice;
    for (auto _ : state) {
        if (ops == kOpsPerDevice) {
            state.PauseTiming();
            dev = std::make_unique<core::ParaBitDevice>(cfg);
            bool placed = false;
            switch (mode) {
              case core::Mode::kPreAllocated:
                placed = dev->writeMetaOperandPair(0, pages, pages);
                break;
              case core::Mode::kReAllocate:
                placed =
                    dev->writeMeta(0, pages) && dev->writeMeta(pages, pages);
                break;
              case core::Mode::kLocationFree:
                placed = dev->writeMetaLsbOnly(0, pages) &&
                         dev->writeMetaLsbOnly(pages, pages);
                break;
            }
            ops = 0;
            state.ResumeTiming();
            if (!placed) {
                state.SkipWithError("operand placement failed");
                break;
            }
        }
        ++ops;
        const core::ExecResult r =
            dev->bitwise(flash::BitwiseOp::kXor, 0, pages, pages, mode);
        if (r.status != core::ExecStatus::kOk) {
            state.SkipWithError("XOR did not complete OK");
            break;
        }
        benchmark::DoNotOptimize(r.stats.end);
    }
    state.SetLabel(core::modeName(mode));
    state.counters["time_per_page_op"] = benchmark::Counter(
        pages, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_PageOpTimingOnly)->DenseRange(0, 2);

/**
 * The scheduler's booking of an op list, SsdDevice::scheduleOps (the
 * PhysOp translation, the FCFS booking, the drain and the group
 * completion), on a timing-only paperSsd() device whose two one-stripe
 * operands were placed with writeMeta.  The argument picks what one call
 * books, walking the stripe's page positions from call to call:
 * 0 one ParaBit XOR sense with its page result transfer, 1 the operand
 * read pair of one page position, 2 the XOR senses of the whole stripe
 * (1024 transactions).  time_per_tx is seconds per transaction in the
 * JSON.
 */
void
BM_ScheduleOps(benchmark::State &state)
{
    const int row = static_cast<int>(state.range(0));
    const ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    const std::uint32_t pages = cfg.geometry.planesTotal();
    core::ParaBitDevice dev(cfg);
    if (!dev.writeMeta(0, pages) || !dev.writeMeta(pages, pages)) {
        state.SkipWithError("operand placement failed");
        return;
    }
    ssd::SsdDevice &ssd = dev.ssd();
    const int senses =
        flash::coLocatedProgram(flash::BitwiseOp::kXor).senseCount();
    std::vector<ssd::PhysOp> sense_ops;
    std::vector<ssd::PhysOp> read_ops;
    for (std::uint32_t p = 0; p < pages; ++p) {
        const auto x = ssd.ftl().lookup(p);
        const auto y = ssd.ftl().lookup(pages + p);
        if (!x || !y) {
            state.SkipWithError("operand page unmapped");
            return;
        }
        sense_ops.push_back(ssd::PhysOp::paraBitSense(
            *y, senses, 0, cfg.geometry.pageBytes));
        read_ops.push_back({ssd::PhysOp::Kind::kPageRead, *x});
        read_ops.push_back({ssd::PhysOp::Kind::kPageRead, *y});
    }
    const std::span<const ssd::PhysOp> all_senses(sense_ops);
    const std::span<const ssd::PhysOp> all_reads(read_ops);
    const std::size_t per_call = row == 0 ? 1 : row == 1 ? 2 : pages;
    // Every call is ready at tick 0, as every page op of one controller
    // batch shares its ready tick.
    std::size_t at = 0;
    for (auto _ : state) {
        const std::span<const ssd::PhysOp> ops =
            row == 0   ? all_senses.subspan(at, 1)
            : row == 1 ? all_reads.subspan(2 * at, 2)
                       : all_senses;
        benchmark::DoNotOptimize(ssd.scheduleOps(ops, 0));
        if (++at == pages)
            at = 0;
    }
    static const char *const kRows[] = {"sense", "read pair", "stripe"};
    state.SetLabel(kRows[row]);
    state.counters["time_per_tx"] = benchmark::Counter(
        static_cast<double>(per_call),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_ScheduleOps)->DenseRange(0, 2);

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
