/**
 * @file
 * The FTL's LPN-ordered page table and the reverse lookup derived from
 * page OOB: table unit tests, LPNs past the logical capacity, the
 * scrambled flag across remaps, and a differential run of the FTL
 * against a plain ordered reference map under GC and wear levelling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "ssd/ftl.hpp"
#include "ssd/lpn_table.hpp"

namespace parabit::ssd {
namespace {

flash::PhysPageAddr
addrFor(Lpn lpn)
{
    flash::PhysPageAddr a;
    a.block = static_cast<std::uint32_t>(lpn % 97);
    a.wordline = static_cast<std::uint32_t>(lpn % 13);
    a.msb = (lpn & 1) != 0;
    return a;
}

std::vector<Lpn>
iterated(const LpnTable &t)
{
    std::vector<Lpn> seen;
    t.forEach([&](Lpn lpn, const LpnTable::Entry &e) {
        EXPECT_TRUE(e.mapped);
        EXPECT_EQ(e.addr, addrFor(lpn)) << "lpn " << lpn;
        seen.push_back(lpn);
    });
    return seen;
}

TEST(LpnTable, EntryIs32Bytes)
{
    EXPECT_EQ(sizeof(LpnTable::Entry), 32u);
}

TEST(LpnTable, IteratesAscendingAcrossChunkBoundaries)
{
    const Lpn k = LpnTable::kChunkEntries;
    std::vector<Lpn> lpns = {5 * k + 1, 0, k - 1, k, 3 * k, 2 * k - 1, 7,
                             ~0ull - 1, 6 * k};
    LpnTable t;
    for (Lpn l : lpns)
        t.assign(l, addrFor(l), false);
    std::sort(lpns.begin(), lpns.end());
    EXPECT_EQ(iterated(t), lpns);
    EXPECT_EQ(t.size(), lpns.size());
}

TEST(LpnTable, AssignReturnsTheReplacedEntry)
{
    LpnTable t;
    const LpnTable::Entry first = t.assign(9, addrFor(9), true);
    EXPECT_FALSE(first.mapped);
    const LpnTable::Entry second = t.assign(9, addrFor(10), false);
    EXPECT_TRUE(second.mapped);
    EXPECT_TRUE(second.scrambled);
    EXPECT_EQ(second.addr, addrFor(9));
    ASSERT_NE(t.find(9), nullptr);
    EXPECT_EQ(t.find(9)->addr, addrFor(10));
    EXPECT_FALSE(t.find(9)->scrambled);
    EXPECT_EQ(t.size(), 1u);
}

TEST(LpnTable, EraseUpdatesSize)
{
    const Lpn k = LpnTable::kChunkEntries;
    LpnTable t;
    for (Lpn l : {Lpn{1}, Lpn{2}, k + 2, Lpn{~0ull}})
        t.assign(l, addrFor(l), false);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_TRUE(t.erase(2));
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.find(2), nullptr);
    EXPECT_FALSE(t.erase(2)); // already unmapped
    EXPECT_FALSE(t.erase(3)); // never mapped, chunk exists
    EXPECT_FALSE(t.erase(9 * k)); // no chunk at all
    EXPECT_EQ(t.size(), 3u);
    EXPECT_TRUE(t.erase(~0ull));
    EXPECT_EQ(iterated(t), (std::vector<Lpn>{1, k + 2}));
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(1), nullptr);
}

/** A bare FTL on chips of @p cfg. */
struct FtlRig
{
    explicit FtlRig(const SsdConfig &c) : cfg(c)
    {
        for (std::uint32_t i = 0; i < cfg.geometry.chips(); ++i)
            chips.emplace_back(cfg.geometry, cfg.storeData, cfg.errors, i);
        ftl = std::make_unique<Ftl>(cfg, chips);
    }

    BitVector
    randomPage(Rng &rng) const
    {
        BitVector v(cfg.geometry.pageBits());
        for (std::size_t i = 0; i < v.size(); ++i)
            v.set(i, rng.chance(0.5));
        return v;
    }

    const std::vector<CheckpointImage::Entry> &
    freshImage()
    {
        std::vector<PhysOp> ops;
        EXPECT_TRUE(ftl->checkpoint(ops));
        return ftl->durableLog().checkpoint->map;
    }

    SsdConfig cfg;
    std::vector<flash::Chip> chips;
    std::unique_ptr<Ftl> ftl;
};

/** Call @p f on every programmed (valid or invalid) page. */
template <typename F>
void
forEachProgrammedPage(Ftl &ftl, const flash::FlashGeometry &g, F &&f)
{
    for (PlaneIndex p = 0; p < g.planesTotal(); ++p) {
        const flash::PhysPageAddr base = planeAddr(g, p);
        const flash::Plane &pl = ftl.chipAt(base).plane(base.die, base.plane);
        for (std::uint32_t b = 0; b < g.blocksPerPlane; ++b) {
            const flash::Block *blk = pl.blockIfExists(b);
            for (std::uint32_t wl = 0; blk && wl < g.wordlinesPerBlock; ++wl)
                for (const bool msb : {false, true})
                    if (blk->pageState(wl, msb) != flash::PageState::kFree)
                        f(planeAddr(g, p, b, wl, msb));
        }
    }
}

SsdConfig
recoveryCfg()
{
    SsdConfig c = SsdConfig::tiny();
    c.recovery.enabled = true;
    c.scrambleHostData = true;
    return c;
}

TEST(FtlMap, LpnsPastCapacityMapLookUpAndIterateLast)
{
    FtlRig r(recoveryCfg());
    Ftl &ftl = *r.ftl;
    Rng rng(0x7AB1E);
    std::vector<PhysOp> ops;
    for (Lpn l = 0; l < 4; ++l) {
        const BitVector d = r.randomPage(rng);
        ASSERT_TRUE(ftl.writePage(l, &d, ops));
    }
    const Lpn past = ftl.logicalPages();
    const Lpn wrapped = ~0ull - 1; // the scratch cursor after wrapping
    const BitVector d = r.randomPage(rng);
    const auto at_wrapped =
        ftl.writeLsbOnly(wrapped, flash::makePayload(d), ops);
    const auto at_past = ftl.writeLsbOnly(past, flash::makePayload(d), ops);
    ASSERT_TRUE(at_wrapped && at_past);
    EXPECT_EQ(ftl.lookup(past), at_past);
    EXPECT_EQ(ftl.lookup(wrapped), at_wrapped);
    EXPECT_EQ(ftl.lpnAt(*at_past), past);
    EXPECT_EQ(ftl.lpnAt(*at_wrapped), wrapped);

    std::vector<Lpn> order;
    for (const CheckpointImage::Entry &e : r.freshImage())
        order.push_back(e.lpn);
    EXPECT_EQ(order, (std::vector<Lpn>{0, 1, 2, 3, past, wrapped}));
}

TEST(FtlMap, RemapKeepsTheScrambledFlag)
{
    FtlRig r(recoveryCfg());
    Ftl &ftl = *r.ftl;
    Rng rng(0x5C4A);
    std::vector<PhysOp> ops;
    const BitVector host = r.randomPage(rng);
    ASSERT_TRUE(ftl.writePage(5, &host, ops));
    const BitVector raw = r.randomPage(rng);
    ASSERT_TRUE(ftl.writeLsbOnly(6, flash::makePayload(raw), ops));

    // Relocation (a RAIN rebuild) re-places the stored, whitened bits.
    const auto old5 = ftl.lookup(5);
    ASSERT_TRUE(old5);
    const flash::Payload stored = ftl.chipAt(*old5).readPage(
        {old5->die, old5->plane, old5->block, old5->wordline, old5->msb});
    ASSERT_NE(*stored, host);
    ASSERT_TRUE(ftl.relocatePage(5, stored, ops));
    ASSERT_NE(ftl.lookup(5), old5);
    // Refresh moves both pages of a wordline as GC-style copies.
    const auto at6 = ftl.lookup(6);
    ASSERT_TRUE(at6);
    ASSERT_TRUE(ftl.refreshWordline(*at6, ops));
    ASSERT_NE(ftl.lookup(6), at6);

    EXPECT_EQ(*ftl.readPage(5, ops), host);
    EXPECT_EQ(*ftl.readPage(6, ops), raw);
    const auto &img = r.freshImage();
    ASSERT_EQ(img.size(), 2u);
    EXPECT_TRUE(img[0].scrambled);
    EXPECT_FALSE(img[1].scrambled);
}

/**
 * Differential run: random host writes, overwrites and trims plus the
 * ParaBit placements (pairs, LSB-only pages, chained drops into a free
 * MSB) on a recovery-enabled, scrambling tiny device with GC and wear
 * levelling running.  After every step the FTL must agree with a plain
 * std::map reference: lookup() for every LPN, lpnAt() for every
 * programmed page (stale copies and released pair backups read
 * kNoLpn), every payload, and a fresh checkpoint image, which must be
 * strictly ascending and equal to the reference.
 */
TEST(FtlMap, MatchesAnOrderedReferenceUnderGcAndWearLevelling)
{
    SsdConfig cfg = recoveryCfg();
    cfg.wearLevelThreshold = 2;
    cfg.seed = 0xD1FF;
    FtlRig r(cfg);
    Ftl &ftl = *r.ftl;
    const flash::FlashGeometry &g = cfg.geometry;
    Rng rng(0xD1FF);

    // Host LPNs, then ParaBit LPNs past the logical capacity and at the
    // top of the LPN space, where the scratch cursor wraps to.  That
    // includes kNoLpn itself, which the cursor hands out once; its
    // pages are programmed without OOB.
    std::vector<Lpn> host, parabit;
    for (Lpn l = 0; l < 96; ++l)
        host.push_back(l * 7);
    for (Lpn i = 0; i < 40; ++i)
        parabit.push_back(ftl.logicalPages() + i);
    for (Lpn i = 0; i < 16; ++i)
        parabit.push_back(kNoLpn - i);
    std::vector<Lpn> all = host;
    all.insert(all.end(), parabit.begin(), parabit.end());

    struct Ref
    {
        std::uint64_t page = 0; ///< linear page index
        bool scrambled = false;
    };
    std::map<Lpn, Ref> ref;
    std::map<Lpn, BitVector> payload;
    std::vector<std::pair<Lpn, flash::PhysPageAddr>> lsbOnly;
    auto lin = [&](const flash::PhysPageAddr &a) {
        return flash::linearPageIndex(g, a);
    };
    auto pick = [&](const std::vector<Lpn> &v) {
        return v[rng.below(v.size())];
    };
    auto placed = [&](Lpn lpn, const flash::PhysPageAddr &a, bool scr,
                      const BitVector &d) {
        ref[lpn] = Ref{lin(a), scr};
        payload[lpn] = d;
    };

    std::vector<PhysOp> ops;
    for (int step = 0; step < 1200; ++step) {
        ops.clear();
        const BitVector d = r.randomPage(rng);
        const double u = rng.uniform();
        if (u < 0.40) {
            const Lpn l = pick(host);
            ASSERT_TRUE(ftl.writePage(l, &d, ops));
            placed(l, *ftl.lookup(l), true, d);
        } else if (u < 0.50) {
            const Lpn l = pick(all);
            ASSERT_TRUE(ftl.trim(l, &ops));
            ref.erase(l);
            payload.erase(l);
        } else if (u < 0.65) {
            const Lpn x = pick(parabit), y = pick(parabit);
            if (x == y)
                continue;
            const BitVector dy = r.randomPage(rng);
            const auto pair = ftl.writePair(x, y, flash::makePayload(d),
                                            flash::makePayload(dy), ops);
            ASSERT_TRUE(pair);
            placed(x, pair->lsb, false, d);
            placed(y, pair->msb, false, dy);
        } else if (u < 0.80) {
            const Lpn l = pick(all);
            const auto a = ftl.writeLsbOnly(l, flash::makePayload(d), ops);
            ASSERT_TRUE(a);
            placed(l, *a, false, d);
            lsbOnly.emplace_back(l, *a);
        } else if (u < 0.90) {
            // Chain into the free MSB of an LSB-only page still in place.
            if (lsbOnly.empty())
                continue;
            const auto [owner, at] = lsbOnly[rng.below(lsbOnly.size())];
            const Lpn l = pick(parabit);
            if (l == owner || ftl.lookup(owner) != at)
                continue;
            if (ftl.writeIntoFreeMsb(l, at, flash::makePayload(d), ops)) {
                flash::PhysPageAddr msb = at;
                msb.msb = true;
                placed(l, msb, false, d);
            }
        } else {
            if (ref.empty())
                continue;
            auto it = ref.begin();
            std::advance(it, static_cast<long>(rng.below(ref.size())));
            const Lpn l = it->first;
            const auto at = *ftl.lookup(l);
            const flash::Payload stored = ftl.chipAt(at).readPage(
                {at.die, at.plane, at.block, at.wordline, at.msb});
            ASSERT_TRUE(ftl.relocatePage(l, stored, ops));
        }

        // Pages the step moved behind the reference's back (GC, wear
        // levelling, relocation) went to a GC-tagged copy naming them.
        for (auto &[lpn, e] : ref) {
            const auto a = ftl.lookup(lpn);
            ASSERT_TRUE(a) << "step " << step << " lpn " << lpn;
            if (lin(*a) == e.page)
                continue;
            const flash::PageOob *oob = ftl.chipAt(*a).pageOob(
                {a->die, a->plane, a->block, a->wordline, a->msb});
            e.page = lin(*a);
            if (lpn == kNoLpn) {
                EXPECT_EQ(oob, nullptr);
                continue;
            }
            ASSERT_NE(oob, nullptr);
            EXPECT_EQ(oob->lpn, lpn);
            EXPECT_EQ(oob->tag, static_cast<std::uint8_t>(OobTag::kGcRelocated))
                << "step " << step << " lpn " << lpn;
        }
        for (Lpn l : all) {
            ASSERT_EQ(ftl.lookup(l).has_value(), ref.count(l) > 0)
                << "step " << step << " lpn " << l;
        }

        std::map<std::uint64_t, Lpn> inverse;
        for (const auto &[lpn, e] : ref)
            ASSERT_TRUE(inverse.emplace(e.page, lpn).second);
        forEachProgrammedPage(ftl, g, [&](const flash::PhysPageAddr &a) {
            const auto it = inverse.find(lin(a));
            ASSERT_EQ(ftl.lpnAt(a), it == inverse.end() ? kNoLpn : it->second)
                << "step " << step << " page " << lin(a);
        });

        for (const auto &[lpn, want] : payload) {
            ASSERT_EQ(*ftl.readPage(lpn, ops), want)
                << "step " << step << " lpn " << lpn;
        }

        const std::vector<CheckpointImage::Entry> &img = r.freshImage();
        ASSERT_EQ(img.size(), ref.size()) << "step " << step;
        auto it = ref.begin();
        for (std::size_t i = 0; i < img.size(); ++i, ++it) {
            if (i > 0) {
                ASSERT_LT(img[i - 1].lpn, img[i].lpn);
            }
            ASSERT_EQ(img[i].lpn, it->first) << "step " << step;
            ASSERT_EQ(img[i].phys, it->second.page) << "step " << step;
            ASSERT_EQ(img[i].scrambled, it->second.scrambled)
                << "step " << step << " lpn " << it->first;
        }
    }
    EXPECT_GT(ftl.gcRuns(), 0u);
    EXPECT_GT(ftl.wearLevelMoves(), 0u);
}

} // namespace
} // namespace parabit::ssd
