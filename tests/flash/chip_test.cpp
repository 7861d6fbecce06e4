/**
 * @file
 * Chip-level functional tests: program/read round trips, both ParaBit
 * op entry points on stored data, plane isolation, erase counting, and
 * a seeded golden of noisy sensing with stuck bitlines.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "flash/chip.hpp"

namespace parabit::flash {
namespace {

FlashGeometry
tinyGeom()
{
    return FlashGeometry::tiny();
}

BitVector
randomPage(const FlashGeometry &g, Rng &rng)
{
    BitVector v(g.pageBits());
    for (std::size_t i = 0; i < v.size(); ++i)
        v.set(i, rng.chance(0.5));
    return v;
}

TEST(Chip, ProgramReadRoundTrip)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(1);
    const BitVector d = randomPage(g, rng);
    const PhysPageAddr a{0, 0, 0, 1, 2, 3, false};
    chip.programPage(a, makePayload(d));
    EXPECT_EQ(chip.pageState(a), PageState::kValid);
    EXPECT_EQ(*chip.readPage(a), d);
}

TEST(Chip, UnwrittenPageReadsAllOnes)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    const PhysPageAddr a{0, 0, 0, 0, 0, 0, true};
    const BitVector v = *chip.readPage(a);
    EXPECT_EQ(v.popcount(), v.size()); // erased
}

TEST(Chip, OpCoLocatedComputesOverWordline)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(2);
    const BitVector x = randomPage(g, rng);
    const BitVector y = randomPage(g, rng);
    const PhysPageAddr lsb{0, 0, 0, 0, 1, 4, false};
    const PhysPageAddr msb{0, 0, 0, 0, 1, 4, true};
    chip.programPage(lsb, makePayload(x));
    chip.programPage(msb, makePayload(y));

    int errors = -1;
    const BitVector out = chip.opCoLocated(BitwiseOp::kXor, lsb, &errors);
    EXPECT_EQ(out, x ^ y);
    EXPECT_EQ(errors, 0); // ideal error model
}

TEST(Chip, OpLocationFreeAcrossWordlines)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(3);
    const BitVector m = randomPage(g, rng);
    const BitVector n = randomPage(g, rng);
    // M in the MSB page of WL 2, N in the LSB page of WL 5, same plane.
    const PhysPageAddr ma{0, 0, 0, 1, 0, 2, true};
    const PhysPageAddr na{0, 0, 0, 1, 3, 5, false};
    chip.programPage(ma, makePayload(m));
    chip.programPage(na, makePayload(n));
    const BitVector out =
        chip.opLocationFree(BitwiseOp::kAnd, ma, na);
    EXPECT_EQ(out, m & n);
}

TEST(Chip, OpLocationFreeLsbLsbVariant)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(4);
    const BitVector m = randomPage(g, rng);
    const BitVector n = randomPage(g, rng);
    const PhysPageAddr ma{0, 0, 0, 0, 2, 0, false};
    const PhysPageAddr na{0, 0, 0, 0, 4, 1, false};
    chip.programPage(ma, makePayload(m));
    chip.programPage(na, makePayload(n));
    const BitVector out = chip.opLocationFree(
        BitwiseOp::kXor, ma, na, nullptr, LocFreeVariant::kLsbLsb);
    EXPECT_EQ(out, m ^ n);
}

TEST(Chip, LocationFreeAcrossPlanesDies)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    const PhysPageAddr ma{0, 0, 0, 0, 0, 0, true};
    const PhysPageAddr na{0, 0, 0, 1, 0, 0, false};
    chip.programPage(ma, nullptr);
    chip.programPage(na, nullptr);
    EXPECT_DEATH(chip.opLocationFree(BitwiseOp::kAnd, ma, na),
                 "share a plane");
}

TEST(Chip, EraseCountTracksPerBlock)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    chip.programPage({0, 0, 0, 0, 3, 0, false}, nullptr);
    chip.eraseBlock({.block = 3});
    chip.eraseBlock({.block = 3});
    EXPECT_EQ(chip.blockEraseCount({.block = 3}), 2u);
    EXPECT_EQ(chip.blockEraseCount({.block = 2}), 0u);
}

TEST(Chip, PlanesAreIsolated)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(5);
    const BitVector d0 = randomPage(g, rng);
    const BitVector d1 = randomPage(g, rng);
    chip.programPage({0, 0, 0, 0, 0, 0, false}, makePayload(d0));
    chip.programPage({0, 0, 0, 1, 0, 0, false}, makePayload(d1));
    EXPECT_EQ(*chip.readPage({0, 0, 0, 0, 0, 0, false}), d0);
    EXPECT_EQ(*chip.readPage({0, 0, 0, 1, 0, 0, false}), d1);
}

TEST(Chip, ErrorInjectionReportsBitErrors)
{
    const FlashGeometry g = tinyGeom();
    // Extremely aggressive error model so flips are certain.
    ErrorModelConfig ec;
    ec.observedErrorsAtRef =
        0.05 * ec.propagationSurvival * ec.refSensings * ec.wordlineBits;
    ec.refPeCycles = 1.0;
    ec.decadesOverLife = 0.0; // flat: same rate at 0 P/E
    Chip chip(g, true, ec, 99);
    const BitVector x(g.pageBits(), true);
    const BitVector y(g.pageBits(), true);
    chip.programPage({0, 0, 0, 0, 0, 0, false}, makePayload(x));
    chip.programPage({0, 0, 0, 0, 0, 0, true}, makePayload(y));
    int errors = 0;
    chip.opCoLocated(BitwiseOp::kXor, {0, 0, 0, 0, 0, 0, false}, &errors);
    EXPECT_GT(errors, 0);
}

/** FNV-1a over a page's bytes: a stable fingerprint of a result. */
std::uint64_t
pageHash(const BitVector &v)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t w : v.words()) {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

struct OpRecord
{
    std::uint64_t hash;
    int bitErrors;

    bool operator==(const OpRecord &) const = default;
};

/**
 * Result fingerprints and surviving bit errors of the op sequence in
 * SeededNoisyOpsMatchRecordedGolden.  Any change to how a sensing draws
 * its flips, where it applies them, or how stuck bitlines pin SO moves
 * these numbers.
 */
constexpr OpRecord kNoisyGolden[] = {
    {0xd723abce2f636109ull, 2},
    {0x05b1d18e387709c7ull, 5},
    {0xd8c04869ffbceb4aull, 1},
    {0x86501a445705295dull, 12},
    {0x61ea7a23a4d3d03dull, 0},
    {0xed160e18709cb38cull, 11},
    {0xccbbdf4e69a9eb36ull, 1},
    {0xacf65b8801bc99b9ull, 12},
    {0x8428df0e927e964aull, 8},
    {0xf008d5ca3e854a22ull, 11},
    {0xe722123998e59486ull, 15},
    {0x8f9f6ea7d1eac7b6ull, 12},
    {0xe2851fd6df17a8cdull, 7},
    {0xefad990f51793c47ull, 14},
    {0x78a08d426943c16dull, 1},
    {0x8b5521e9a934f76cull, 2},
    {0x605eda774587607eull, 2},
    {0xfacde2f0ebd6b419ull, 1},
    {0x65fd5f0b8160f78eull, 2},
    {0xfb7f6486bded54daull, 0},
    {0xffd8818805b47086ull, 6},
    {0x6481d12280a0db84ull, 8},
    {0xd63564eb12c50eebull, 20},
    {0x1f0564e8e2163d94ull, 7},
    {0xccbe22fd289730d7ull, 1},
    {0x5fac5cf62ef649abull, 9},
    {0xca7fb97d3ba27ed2ull, 12},
    {0xf4f612f2ea8c79aaull, 6},
};

TEST(Chip, SeededNoisyOpsMatchRecordedGolden)
{
    // 4100-byte pages: 32800 bitlines end in the middle of a 64-bit word
    // and in the middle of a 4096-bitline block.
    FlashGeometry g = tinyGeom();
    g.pageBytes = 4100;
    ASSERT_EQ(g.pageBits(), 32800u);
    // The calibrated error model; block 1 is an elevated-RBER region so
    // that most of its sensings flip a few bitlines.
    Chip chip(g, true, ErrorModelConfig{}, 2024);
    ChipFaultHooks hooks;
    hooks.rberMultiplier = [](const PhysPageAddr &a) {
        return a.block == 1 ? 300.0 : 1.0;
    };
    chip.setFaultHooks(std::move(hooks));
    chip.plane(0, 0).addStuckBitline(77, true);
    chip.plane(0, 0).addStuckBitline(32790, false); // partial last block

    Rng rng(7);
    for (std::uint32_t plane : {0u, 1u}) {
        for (std::uint32_t block : {0u, 1u}) {
            for (std::uint32_t wl = 0; wl < 4; ++wl) {
                for (bool msb : {false, true}) {
                    chip.programPage({0, 0, 0, plane, block, wl, msb},
                                     makePayload(randomPage(g, rng)));
                }
            }
        }
    }
    const BitVector buffer = randomPage(g, rng);

    const BitwiseOp binary[] = {BitwiseOp::kAnd,  BitwiseOp::kOr,
                                BitwiseOp::kXnor, BitwiseOp::kNand,
                                BitwiseOp::kNor,  BitwiseOp::kXor};
    std::vector<OpRecord> got;
    int e = -1;
    // Reads e only after the op that wrote it has returned.
    auto record = [&got, &e](const BitVector &out) {
        got.push_back({pageHash(out), e});
        e = -1;
    };
    for (int i = 0; i < kNumBitwiseOps; ++i) {
        const auto op = static_cast<BitwiseOp>(i);
        const std::uint32_t block = static_cast<std::uint32_t>(i) % 2;
        const std::uint32_t wl = static_cast<std::uint32_t>(i) % 4;
        record(chip.opCoLocated(op, {0, 0, 0, 0, block, wl, false}, &e));
    }
    for (const BitwiseOp op : binary)
        record(chip.opLocationFree(op, {0, 0, 0, 0, 0, 1, true},
                                   {0, 0, 0, 0, 1, 2, false}, &e,
                                   LocFreeVariant::kMsbLsb));
    for (const BitwiseOp op : binary)
        record(chip.opLocationFree(op, {0, 0, 0, 0, 1, 3, false},
                                   {0, 0, 0, 0, 0, 2, false}, &e,
                                   LocFreeVariant::kLsbLsb));
    for (const BitwiseOp op : binary)
        record(chip.opBufferedOperand(op, buffer, {0, 0, 0, 0, 1, 0, false},
                                      &e));
    // Plane 1 has no stuck bitlines: noise alone.
    record(chip.opCoLocated(BitwiseOp::kXor, {0, 0, 0, 1, 1, 1, false}, &e));
    record(chip.opLocationFree(BitwiseOp::kAnd, {0, 0, 0, 1, 0, 3, true},
                               {0, 0, 0, 1, 1, 0, false}, &e));

    ASSERT_EQ(got.size(), std::size(kNoisyGolden));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].hash, kNoisyGolden[i].hash) << "op " << i;
        EXPECT_EQ(got[i].bitErrors, kNoisyGolden[i].bitErrors) << "op " << i;
    }
}

} // namespace
} // namespace parabit::flash
