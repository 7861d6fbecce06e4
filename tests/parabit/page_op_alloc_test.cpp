/**
 * @file
 * Heap allocations per controller page op.  Booking a page op must not
 * touch the heap: a sensing site and its host fallback are data, every
 * stage's physical ops go through one reused buffer, and the device
 * books from spans.  What may remain is lazy set-up (blocks opened and
 * map chunks created by the copies) and per-op vectors, at most one
 * allocation per kPageOpsPerAllocation page ops, plus the result page
 * of a functional run.
 *
 * The binary links counting_new.cpp, which replaces the global
 * operator new and delete with counting versions, so it is its own
 * executable.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "counting_new.hpp"
#include "parabit/device.hpp"

namespace parabit::core {
namespace {

/** Page ops one allocation may serve, at most. */
constexpr std::uint32_t kPageOpsPerAllocation = 32;

/** Heap allocations made by @p fn. */
template <typename Fn>
std::uint64_t
allocationsIn(Fn &&fn)
{
    const std::uint64_t before = test::heapAllocations();
    fn();
    return test::heapAllocations() - before;
}

std::vector<BitVector>
randomPages(const ssd::SsdConfig &cfg, std::uint32_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    out.reserve(n);
    for (std::uint32_t p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

/** paperSsd(), with or without payloads.  Whole-device invariant
 *  audits (every drain in PARABIT_INVARIANTS builds) allocate by
 *  design; the test counts the page op's own allocations. */
ssd::SsdConfig
paperConfig(bool store_data)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    cfg.storeData = store_data;
    cfg.invariants.auditInterval = 0;
    return cfg;
}

/** One XOR of @p pages pages in @p mode; fails the test unless OK. */
ExecResult
xorOp(ParaBitDevice &dev, nvme::Lpn x, nvme::Lpn y, std::uint32_t pages,
      Mode mode)
{
    ExecResult r = dev.bitwise(flash::BitwiseOp::kXor, x, y, pages, mode);
    EXPECT_EQ(r.status, ExecStatus::kOk) << modeName(mode);
    return r;
}

TEST(PageOpAllocations, TimingOnlyPageOpsStayOffTheHeap)
{
    const ssd::SsdConfig cfg = paperConfig(false);
    ParaBitDevice dev(cfg);
    const std::uint32_t pages = 2 * cfg.geometry.planesTotal(); // 2 stripes
    // Each mode's operands in the layout it computes on: a co-located
    // pair, operands anywhere, and whole-stripe LSB-only operands that
    // share planes page by page.
    ASSERT_TRUE(dev.writeMetaOperandPair(0, pages, pages));
    ASSERT_TRUE(dev.writeMeta(2 * pages, pages));
    ASSERT_TRUE(dev.writeMeta(3 * pages, pages));
    ASSERT_TRUE(dev.writeMetaLsbOnly(4 * pages, pages));
    ASSERT_TRUE(dev.writeMetaLsbOnly(5 * pages, pages));
    struct Case
    {
        Mode mode;
        nvme::Lpn x, y;
    };
    for (const Case &c : {Case{Mode::kPreAllocated, 0, pages},
                          Case{Mode::kReAllocate, 2 * pages, 3 * pages},
                          Case{Mode::kLocationFree, 4 * pages, 5 * pages}}) {
        xorOp(dev, c.x, c.y, pages, c.mode); // warm-up
        ExecResult r;
        const std::uint64_t n = allocationsIn(
            [&] { r = xorOp(dev, c.x, c.y, pages, c.mode); });
        EXPECT_LE(n, pages / kPageOpsPerAllocation)
            << modeName(c.mode) << ": " << n << " allocations for "
            << pages << " page ops";
        // The layouts ask for what each mode is meant to do: no
        // reallocation or staging outside ReAlloc.
        EXPECT_EQ(r.stats.pagePrograms,
                  c.mode == Mode::kReAllocate ? 2u * pages : 0u)
            << modeName(c.mode);
    }
}

TEST(PageOpAllocations, FunctionalPageOpsAllocateOnlyTheirResult)
{
    const ssd::SsdConfig cfg = paperConfig(true);
    ASSERT_EQ(cfg.geometry.pageBytes, 8 * bytes::kKiB);
    ParaBitDevice dev(cfg);
    const std::uint32_t pages = cfg.geometry.planesTotal(); // 1 stripe
    const std::vector<BitVector> x = randomPages(cfg, pages, 1);
    const std::vector<BitVector> y = randomPages(cfg, pages, 2);
    ASSERT_TRUE(dev.writeOperandPair(0, pages, x, y));
    ASSERT_TRUE(dev.writeData(2 * pages, x));
    ASSERT_TRUE(dev.writeData(3 * pages, y));
    struct Case
    {
        Mode mode;
        nvme::Lpn x, y;
    };
    for (const Case &c : {Case{Mode::kPreAllocated, 0, pages},
                          Case{Mode::kReAllocate, 2 * pages, 3 * pages}}) {
        xorOp(dev, c.x, c.y, pages, c.mode); // warm-up
        ExecResult r;
        const std::uint64_t n = allocationsIn(
            [&] { r = xorOp(dev, c.x, c.y, pages, c.mode); });
        EXPECT_LE(n, pages + pages / kPageOpsPerAllocation)
            << modeName(c.mode) << ": " << n << " allocations for "
            << pages << " page ops";
        ASSERT_EQ(r.pages.size(), pages);
        for (std::uint32_t p = 0; p < pages; ++p)
            ASSERT_EQ(r.pages[p], x[p] ^ y[p])
                << modeName(c.mode) << " page " << p;
    }
}

} // namespace
} // namespace parabit::core
