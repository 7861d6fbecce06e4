/**
 * @file
 * Scrambler tests (paper Section 4.3.2): involution, whitening, the
 * host-path round trip, and the ParaBit bypass — operands must be
 * stored raw or in-flash computation would operate on keystreamed bits.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "parabit/device.hpp"
#include "ssd/scrambler.hpp"

namespace parabit::ssd {
namespace {

BitVector
randomPage(std::size_t bits, std::uint64_t seed)
{
    Rng rng(seed);
    BitVector v(bits);
    for (auto &w : v.words())
        w = rng.next();
    v.maskTail();
    return v;
}

TEST(Scrambler, IsInvolutive)
{
    Scrambler s(42);
    BitVector page = randomPage(512, 1);
    const BitVector original = page;
    s.apply(page, 7);
    EXPECT_NE(page, original);
    s.apply(page, 7);
    EXPECT_EQ(page, original);
}

TEST(Scrambler, KeystreamDependsOnLpn)
{
    Scrambler s(42);
    const BitVector page = randomPage(512, 2);
    EXPECT_NE(s.scrambled(page, 1), s.scrambled(page, 2));
}

TEST(Scrambler, KeystreamDependsOnDeviceKey)
{
    Scrambler a(1), b(2);
    const BitVector page = randomPage(512, 3);
    EXPECT_NE(a.scrambled(page, 5), b.scrambled(page, 5));
}

TEST(Scrambler, WhitensPathologicalPatterns)
{
    // An all-ones page (the worst array stress pattern) must come out
    // roughly balanced.
    Scrambler s(99);
    BitVector ones(4096, true);
    s.apply(ones, 3);
    const double density =
        static_cast<double>(ones.popcount()) / ones.size();
    EXPECT_GT(density, 0.40);
    EXPECT_LT(density, 0.60);
}

TEST(Scrambler, HostPathRoundTripsThroughFtl)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.scrambleHostData = true;
    core::ParaBitDevice dev(cfg);
    const BitVector d = randomPage(cfg.geometry.pageBits(), 4);
    dev.writeData(0, {d});
    EXPECT_EQ(dev.readData(0, 1)[0], d) << "descramble must restore data";
}

TEST(Scrambler, HostWritesAreStoredWhitened)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.scrambleHostData = true;
    core::ParaBitDevice dev(cfg);
    const BitVector d(cfg.geometry.pageBits(), true); // all-ones page
    dev.writeData(0, {d});
    const auto addr = dev.ssd().ftl().lookup(0);
    ASSERT_TRUE(addr);
    const BitVector raw =
        *dev.ssd().chipAt(addr->channel, addr->chip)
             .readPage({addr->die, addr->plane, addr->block, addr->wordline,
                        addr->msb});
    EXPECT_NE(raw, d) << "stored bits must be whitened";
}

TEST(Scrambler, ReadsLeaveTheStoredPayloadWhitenedAcrossAGcMove)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.scrambleHostData = true;
    core::ParaBitDevice dev(cfg);
    Ftl &ftl = dev.ssd().ftl();
    const BitVector d = randomPage(cfg.geometry.pageBits(), 11);
    ASSERT_TRUE(dev.writeData(0, {d}));
    const auto stored = [&] {
        const flash::PhysPageAddr a = *ftl.lookup(0);
        return dev.ssd()
            .chipAt(a.channel, a.chip)
            .plane(a.die, a.plane)
            .block(a.block)
            .pageData(a.wordline, a.msb)
            .get();
    };
    const BitVector *first = stored();
    ASSERT_NE(first, nullptr);
    const BitVector whitened = *first;
    ASSERT_NE(whitened, d);
    std::vector<PhysOp> ops;
    EXPECT_EQ(*ftl.readPage(0, ops), d);
    EXPECT_EQ(*stored(), whitened) << "a read must not descramble in place";

    // Leave LPN 0 the only valid page of its block, then add pages that
    // stay valid until GC picks that block, the cheapest victim, and
    // moves LPN 0: the copy shares the whitened payload, and reads
    // still return the host's bits.
    const flash::PhysPageAddr before = *ftl.lookup(0);
    const auto in_first_block = [&](Lpn l) {
        const flash::PhysPageAddr a = *ftl.lookup(l);
        return a.channel == before.channel && a.chip == before.chip &&
               a.die == before.die && a.plane == before.plane &&
               a.block == before.block;
    };
    const std::vector<BitVector> filler{
        randomPage(cfg.geometry.pageBits(), 12)};
    Lpn next = 1;
    for (; next < 200; ++next)
        ASSERT_TRUE(dev.writeData(next, filler));
    for (Lpn l = 1; l < next; ++l)
        if (in_first_block(l))
            ASSERT_TRUE(ftl.trim(l));
    while (*ftl.lookup(0) == before && next < ftl.logicalPages())
        ASSERT_TRUE(dev.writeData(next++, filler));
    ASSERT_FALSE(*ftl.lookup(0) == before) << "GC never moved LPN 0";
    EXPECT_GT(ftl.gcPagesWritten(), 0u);
    EXPECT_EQ(stored(), first);
    EXPECT_EQ(*stored(), whitened);
    EXPECT_EQ(*ftl.readPage(0, ops), d);
}

TEST(Scrambler, ParaBitPlacementBypassesScrambling)
{
    // Paper Section 4.3.2: scrambling is disabled when operands are
    // allocated or reallocated, so in-flash ops see real data.
    SsdConfig cfg = SsdConfig::tiny();
    cfg.scrambleHostData = true;
    core::ParaBitDevice dev(cfg);
    const BitVector x = randomPage(cfg.geometry.pageBits(), 5);
    const BitVector y = randomPage(cfg.geometry.pageBits(), 6);
    dev.writeOperandPair(0, 100, {x}, {y});
    const auto addr = dev.ssd().ftl().lookup(0);
    ASSERT_TRUE(addr);
    const BitVector raw =
        *dev.ssd().chipAt(addr->channel, addr->chip)
             .readPage({addr->die, addr->plane, addr->block, addr->wordline,
                        false});
    EXPECT_EQ(raw, x) << "operands must be stored raw";

    const auto r = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                               core::Mode::kPreAllocated);
    EXPECT_EQ(r.pages[0], x & y)
        << "in-flash computation must see unscrambled operands";
}

TEST(Scrambler, ReallocPathDescramblesHostDataFirst)
{
    // Operands originally written through the scrambled host path are
    // read (descrambled by ECC path) and re-programmed raw during
    // reallocation, so the computation is still correct.
    SsdConfig cfg = SsdConfig::tiny();
    cfg.scrambleHostData = true;
    core::ParaBitDevice dev(cfg);
    const BitVector x = randomPage(cfg.geometry.pageBits(), 7);
    const BitVector y = randomPage(cfg.geometry.pageBits(), 8);
    dev.writeData(0, {x});
    dev.writeData(100, {y});
    const auto r = dev.bitwise(flash::BitwiseOp::kXor, 0, 100, 1,
                               core::Mode::kReAllocate);
    EXPECT_EQ(r.pages[0], x ^ y);
}

} // namespace
} // namespace parabit::ssd
