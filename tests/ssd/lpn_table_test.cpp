/**
 * @file
 * The FTL's LPN-ordered page table and the reverse lookup derived from
 * page OOB: table unit tests, copy-on-write snapshots, LPNs past the
 * logical capacity, the scrambled flag across remaps, a checkpoint
 * image that later writes must not reach, and a differential run of
 * the FTL against a plain ordered reference map under GC and wear
 * levelling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
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
        EXPECT_EQ(e.addr(), addrFor(lpn)) << "lpn " << lpn;
        seen.push_back(lpn);
    });
    return seen;
}

TEST(LpnTable, EntryIs16Bytes)
{
    EXPECT_EQ(sizeof(LpnTable::Entry), 16u);
}

TEST(LpnTable, EntryRoundTripsTheLargestAddressOfAFittingGeometry)
{
    flash::FlashGeometry g;
    g.channels = 1u << 16;
    g.chipsPerChannel = 1u << 16;
    g.diesPerChip = 256;
    g.planesPerDie = 256;
    g.blocksPerPlane = ~0u;
    g.wordlinesPerBlock = 1u << 16;
    ASSERT_TRUE(LpnTable::fits(g));
    const flash::PhysPageAddr top{
        g.channels - 1,     g.chipsPerChannel - 1, g.diesPerChip - 1,
        g.planesPerDie - 1, g.blocksPerPlane - 1,  g.wordlinesPerBlock - 1,
        true};
    LpnTable t;
    t.assign(3, top, true);
    ASSERT_NE(t.find(3), nullptr);
    EXPECT_EQ(t.find(3)->addr(), top);
    EXPECT_TRUE(t.find(3)->scrambled);

    // One more of any narrow coordinate no longer fits.
    const auto fits_one_more = [&](std::uint32_t flash::FlashGeometry::*n) {
        flash::FlashGeometry wide = g;
        ++(wide.*n);
        return LpnTable::fits(wide);
    };
    EXPECT_FALSE(fits_one_more(&flash::FlashGeometry::channels));
    EXPECT_FALSE(fits_one_more(&flash::FlashGeometry::chipsPerChannel));
    EXPECT_FALSE(fits_one_more(&flash::FlashGeometry::diesPerChip));
    EXPECT_FALSE(fits_one_more(&flash::FlashGeometry::planesPerDie));
    EXPECT_FALSE(fits_one_more(&flash::FlashGeometry::wordlinesPerBlock));
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
    EXPECT_EQ(second.addr(), addrFor(9));
    ASSERT_NE(t.find(9), nullptr);
    EXPECT_EQ(t.find(9)->addr(), addrFor(10));
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

TEST(LpnTable, ACopySharesItsChunks)
{
    const Lpn k = LpnTable::kChunkEntries;
    const std::vector<Lpn> lpns = {3, k + 1, ~0ull - 1};
    LpnTable t;
    for (Lpn l : lpns)
        t.assign(l, addrFor(l), false);
    const LpnTable snap = t;
    for (Lpn l : lpns) {
        ASSERT_NE(t.find(l), nullptr);
        EXPECT_EQ(snap.find(l), t.find(l)) << "lpn " << l; // same slot
    }
    EXPECT_EQ(snap.size(), 3u);
    EXPECT_EQ(t.chunkCopies(), 0u);
}

/**
 * After a copy, writes to the original (in a shared chunk, in a chunk
 * the copy does not have, and at the wrapped top of the LPN space)
 * copy the chunks they touch: the copy still reads every old entry,
 * its size and its iteration order, and the original the new ones.
 */
TEST(LpnTable, ASnapshotKeepsItsEntriesWhenTheOriginalChanges)
{
    const Lpn k = LpnTable::kChunkEntries;
    const Lpn wrapped = ~0ull - 1;
    const std::vector<Lpn> lpns = {1, 2, 7, k + 1, k + 2, wrapped, ~0ull};
    LpnTable t;
    for (Lpn l : lpns)
        t.assign(l, addrFor(l), l == 7);
    const LpnTable snap = t;

    const flash::PhysPageAddr moved = addrFor(40);
    t.assign(2, moved, true);          // remap in a shared chunk
    t.assign(5, moved, false);         // new LPN in a shared chunk
    EXPECT_TRUE(t.erase(k + 2));       // unmap in another shared chunk
    t.assign(9 * k + 4, moved, false); // a chunk the snapshot lacks
    t.assign(wrapped, moved, false);
    EXPECT_TRUE(t.erase(~0ull));
    EXPECT_EQ(t.chunkCopies(), 3u); // chunks 0, 1 and the top one

    EXPECT_EQ(snap.size(), lpns.size());
    ASSERT_EQ(iterated(snap), lpns); // every old address, in order
    EXPECT_FALSE(snap.find(2)->scrambled);
    EXPECT_TRUE(snap.find(7)->scrambled);
    EXPECT_EQ(snap.find(5), nullptr);
    EXPECT_EQ(snap.find(9 * k + 4), nullptr);

    EXPECT_EQ(t.size(), lpns.size());
    for (Lpn l : {Lpn{2}, Lpn{5}, 9 * k + 4, wrapped}) {
        ASSERT_NE(t.find(l), nullptr) << "lpn " << l;
        EXPECT_EQ(t.find(l)->addr(), moved) << "lpn " << l;
    }
    EXPECT_TRUE(t.find(2)->scrambled);
    EXPECT_EQ(t.find(k + 2), nullptr);
    EXPECT_EQ(t.find(~0ull), nullptr);
    std::vector<Lpn> now;
    t.forEach([&](Lpn lpn, const LpnTable::Entry &) { now.push_back(lpn); });
    EXPECT_EQ(now, (std::vector<Lpn>{1, 2, 5, 7, k + 1, 9 * k + 4, wrapped}));

    // A chunk already copied is the original's own: no second copy.
    t.assign(3, moved, false);
    EXPECT_EQ(t.chunkCopies(), 3u);
}

/**
 * Chunk hints: every find() and assign() below goes through a chunk that
 * was found (and hinted) just before the table or its copy changed.
 * Chunks 1, 5 and 9 are 4 apart, and so are chunks 0, 4 and 8, as a
 * table indexing its hints by key modulo the slot count would collide.
 */
TEST(LpnTable, HintedLookupsFollowAChunkMovedByAnInsert)
{
    const Lpn k = LpnTable::kChunkEntries;
    LpnTable t;
    t.assign(5 * k + 1, addrFor(5 * k + 1), false);
    ASSERT_NE(t.find(5 * k + 1), nullptr); // hints chunk 5 at index 0
    // Chunks inserted before it move chunk 5 to index 2.
    t.assign(1 * k + 2, addrFor(1 * k + 2), false);
    t.assign(4 * k + 3, addrFor(4 * k + 3), false);
    ASSERT_NE(t.find(5 * k + 1), nullptr);
    EXPECT_EQ(t.find(5 * k + 1)->addr(), addrFor(5 * k + 1));
    EXPECT_EQ(t.find(1 * k + 1), nullptr); // chunk 1 has no slot 1
    EXPECT_EQ(t.find(5 * k + 2), nullptr); // chunk 5 has no slot 2
    // An assign through the hint writes chunk 5, not what took its index.
    EXPECT_FALSE(t.assign(5 * k + 2, addrFor(5 * k + 2), false).mapped);
    EXPECT_EQ(t.find(1 * k + 3), nullptr);
    t.assign(9 * k, addrFor(9 * k), false);
    t.assign(0, addrFor(0), false); // moves every chunk up once more
    for (Lpn l : {5 * k + 1, 5 * k + 2, 1 * k + 2, 4 * k + 3, 9 * k, Lpn{0}}) {
        ASSERT_NE(t.find(l), nullptr) << "lpn " << l;
        EXPECT_EQ(t.find(l)->addr(), addrFor(l)) << "lpn " << l;
    }
    EXPECT_EQ(iterated(t), (std::vector<Lpn>{0, k + 2, 4 * k + 3, 5 * k + 1,
                                             5 * k + 2, 9 * k}));
}

TEST(LpnTable, HintedLookupsSeeAnErase)
{
    const Lpn k = LpnTable::kChunkEntries;
    LpnTable t;
    t.assign(k + 7, addrFor(k + 7), true);
    ASSERT_NE(t.find(k + 7), nullptr);
    EXPECT_TRUE(t.erase(k + 7));
    EXPECT_EQ(t.find(k + 7), nullptr);
    EXPECT_FALSE(t.erase(k + 7));
    const LpnTable::Entry old = t.assign(k + 7, addrFor(k + 8), false);
    EXPECT_FALSE(old.mapped);
    ASSERT_NE(t.find(k + 7), nullptr);
    EXPECT_EQ(t.find(k + 7)->addr(), addrFor(k + 8));
    EXPECT_FALSE(t.find(k + 7)->scrambled);
    EXPECT_EQ(t.size(), 1u);
}

TEST(LpnTable, HintedLookupsOnASnapshotWhileTheOriginalInsertsChunks)
{
    const Lpn k = LpnTable::kChunkEntries;
    LpnTable t;
    for (Lpn l : {4 * k + 1, 8 * k + 1})
        t.assign(l, addrFor(l), false);
    ASSERT_NE(t.find(4 * k + 1), nullptr); // hints at indices 0 and 1
    ASSERT_NE(t.find(8 * k + 1), nullptr);
    LpnTable snap = t; // copies the hints along with the directory

    // The original inserts chunks in front of both and remaps in them.
    const flash::PhysPageAddr moved = addrFor(40);
    for (Lpn l : {Lpn{1}, 2 * k + 1, 6 * k + 1})
        t.assign(l, addrFor(l), false);
    t.assign(4 * k + 1, moved, false);
    t.assign(8 * k + 1, moved, false);
    EXPECT_EQ(t.find(4 * k + 1)->addr(), moved);
    EXPECT_EQ(t.find(8 * k + 1)->addr(), moved);

    // The snapshot still reads its own chunks, at its own indices.
    ASSERT_NE(snap.find(4 * k + 1), nullptr);
    EXPECT_EQ(snap.find(4 * k + 1)->addr(), addrFor(4 * k + 1));
    ASSERT_NE(snap.find(8 * k + 1), nullptr);
    EXPECT_EQ(snap.find(8 * k + 1)->addr(), addrFor(8 * k + 1));
    for (Lpn l : {Lpn{1}, 2 * k + 1, 6 * k + 1})
        EXPECT_EQ(snap.find(l), nullptr) << "lpn " << l;

    // Writes to the snapshot go to its chunks, not the original's.
    snap.assign(0, addrFor(0), false);
    snap.assign(8 * k + 2, addrFor(8 * k + 2), false);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(8 * k + 2), nullptr);
    EXPECT_EQ(iterated(snap),
              (std::vector<Lpn>{0, 4 * k + 1, 8 * k + 1, 8 * k + 2}));
    EXPECT_EQ(t.size(), 5u);
}

TEST(LpnTable, HintedLookupsAtTheWrappedTop)
{
    const Lpn k = LpnTable::kChunkEntries;
    const Lpn wrapped = ~0ull - 1; // the scratch cursor after wrapping
    LpnTable t;
    t.assign(wrapped, addrFor(wrapped), false);
    ASSERT_NE(t.find(wrapped), nullptr); // hints the top chunk
    EXPECT_EQ(t.find(~0ull), nullptr);   // its neighbour, unmapped
    t.assign(3, addrFor(3), false);      // moves the top chunk to index 1
    t.assign(~0ull, addrFor(~0ull), false);
    for (Lpn l : {wrapped, Lpn{~0ull}, Lpn{3}}) {
        ASSERT_NE(t.find(l), nullptr) << "lpn " << l;
        EXPECT_EQ(t.find(l)->addr(), addrFor(l)) << "lpn " << l;
    }
    EXPECT_EQ(t.find(wrapped - k), nullptr); // the chunk below the top
    EXPECT_TRUE(t.erase(wrapped));
    EXPECT_EQ(t.find(wrapped), nullptr);
    EXPECT_EQ(iterated(t), (std::vector<Lpn>{3, ~0ull}));
}

TEST(LpnTable, HintedLookupsAfterClear)
{
    const Lpn k = LpnTable::kChunkEntries;
    LpnTable t;
    for (Lpn l : {2 * k + 1, 6 * k + 1, 10 * k + 1}) {
        t.assign(l, addrFor(l), false);
        ASSERT_NE(t.find(l), nullptr); // hints indices 0, 1 and 2
    }
    t.clear();
    for (Lpn l : {2 * k + 1, 6 * k + 1, 10 * k + 1})
        EXPECT_EQ(t.find(l), nullptr) << "lpn " << l;
    // Rebuilt, chunk 6 ends at index 0 and chunk 10 at index 1, where
    // the hints from before put chunks 2 and 6; chunk 2 is not mapped.
    const flash::PhysPageAddr moved = addrFor(77);
    t.assign(10 * k + 1, moved, false);
    t.assign(6 * k + 2, addrFor(6 * k + 2), false);
    EXPECT_EQ(t.find(2 * k + 1), nullptr);
    EXPECT_EQ(t.find(6 * k + 1), nullptr);
    ASSERT_NE(t.find(10 * k + 1), nullptr);
    EXPECT_EQ(t.find(10 * k + 1)->addr(), moved);
    ASSERT_NE(t.find(6 * k + 2), nullptr);
    EXPECT_EQ(t.find(6 * k + 2)->addr(), addrFor(6 * k + 2));
    EXPECT_EQ(t.size(), 2u);
}

/**
 * Hinted lookups against an ordered reference over more chunks than
 * there are hints, at both ends of the LPN range, several of them 4
 * apart: random assigns, erases, finds and snapshot copies, each copy
 * then written and read on its own.
 */
TEST(LpnTable, HintedLookupsMatchAnOrderedReference)
{
    const Lpn k = LpnTable::kChunkEntries;
    const std::vector<Lpn> chunks = {0, 1, 4, 5, 8, 9, 13, (~0ull >> 12),
                                     (~0ull >> 12) - 4};
    Rng rng(0x41A7);
    struct Copy
    {
        LpnTable table;
        std::map<Lpn, flash::PhysPageAddr> ref;
    };
    std::vector<Copy> copies(1);
    copies.reserve(4);
    for (int step = 0; step < 20000; ++step) {
        Copy &c = copies[rng.below(copies.size())];
        const Lpn lpn =
            chunks[rng.below(chunks.size())] * k + rng.below(8);
        switch (rng.below(8)) {
          case 0:
            if (copies.size() < 4)
                copies.push_back(c);
            break;
          case 1:
            EXPECT_EQ(c.table.erase(lpn), c.ref.erase(lpn) == 1);
            break;
          case 2:
          case 3: {
            const flash::PhysPageAddr a = addrFor(lpn + step);
            const LpnTable::Entry old = c.table.assign(lpn, a, false);
            const auto it = c.ref.find(lpn);
            ASSERT_EQ(old.mapped, it != c.ref.end()) << "lpn " << lpn;
            if (old.mapped) {
                EXPECT_EQ(old.addr(), it->second) << "lpn " << lpn;
            }
            c.ref[lpn] = a;
            break;
          }
          default: {
            const LpnTable::Entry *e = c.table.find(lpn);
            const auto it = c.ref.find(lpn);
            ASSERT_EQ(e != nullptr, it != c.ref.end()) << "lpn " << lpn;
            if (e) {
                EXPECT_EQ(e->addr(), it->second) << "lpn " << lpn;
            }
          }
        }
    }
    for (const Copy &c : copies)
        EXPECT_EQ(c.table.size(), c.ref.size());
}

/** One map record of a checkpoint image as it is serialised. */
struct ImageRecord
{
    Lpn lpn = 0;
    std::uint64_t phys = 0; ///< linear page index
    bool scrambled = false;

    bool operator==(const ImageRecord &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const ImageRecord &r)
{
    return os << "{lpn " << r.lpn << ", page " << r.phys
              << (r.scrambled ? ", scrambled}" : "}");
}

std::vector<ImageRecord>
records(const CheckpointImage &img, const flash::FlashGeometry &g)
{
    std::vector<ImageRecord> out;
    img.map.forEach([&](Lpn lpn, const LpnTable::Entry &e) {
        out.push_back({lpn, flash::linearPageIndex(g, e.addr()), e.scrambled});
    });
    return out;
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

    std::vector<ImageRecord>
    freshImage()
    {
        std::vector<PhysOp> ops;
        EXPECT_TRUE(ftl->checkpoint(ops));
        return records(*ftl->durableLog().checkpoint, cfg.geometry);
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
    for (flash::PlaneIndex p = 0; p < g.planesTotal(); ++p) {
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
    for (const ImageRecord &e : r.freshImage())
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
    const flash::Payload stored = ftl.chipAt(*old5).readPage(*old5);
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
 * The durable checkpoint image is a snapshot of the page map: trims,
 * relocations and overwrites of the LPNs it holds, in each of its
 * chunks, and the GC and wear levelling they force leave it equal to
 * what it held when it was taken, record for record.
 */
TEST(FtlMap, CheckpointImageIsUntouchedByLaterMapChanges)
{
    SsdConfig cfg = recoveryCfg();
    cfg.wearLevelThreshold = 2;
    // Eight data blocks per plane, so wear levelling finds cold ones,
    // and a log with room for every journal record below, so the
    // checkpoint under test is never rotated out.
    cfg.geometry.blocksPerPlane = 12;
    cfg.geometry.pageBytes = 512;
    cfg.recovery.reservedBlocksPerPlane = 4;
    FtlRig r(cfg);
    Ftl &ftl = *r.ftl;
    std::vector<PhysOp> ops;

    // Host LPNs in chunk 0; ParaBit LPNs in chunk 1 and in the chunk
    // at the top of the LPN space, where the scratch cursor wraps to.
    std::vector<Lpn> host, parabit;
    for (Lpn l = 0; l < 256; ++l)
        host.push_back(l * 3);
    for (Lpn i = 0; i < 6; ++i) {
        parabit.push_back(LpnTable::kChunkEntries + i);
        parabit.push_back(kNoLpn - 1 - i);
    }
    // Pages without bits: only the map is under test.
    const auto overwrite_host = [&](Lpn l) {
        ASSERT_TRUE(ftl.writePage(l, nullptr, ops));
    };
    const auto overwrite_parabit = [&](Lpn l) {
        ASSERT_TRUE(ftl.writeLsbOnly(l, nullptr, ops));
    };
    for (Lpn l : host)
        overwrite_host(l);
    for (Lpn l : parabit)
        overwrite_parabit(l);

    const std::vector<ImageRecord> at_checkpoint = r.freshImage();
    ASSERT_EQ(at_checkpoint.size(), host.size() + parabit.size());
    const std::uint64_t checkpoints = ftl.checkpointsTaken();
    const std::uint64_t gc_runs = ftl.gcRuns();
    const std::uint64_t copies = ftl.mapChunkCopies();

    for (Lpn l : {host[0], parabit[0], parabit[1]})
        ASSERT_TRUE(ftl.trim(l, &ops));
    for (Lpn l : {host[1], parabit[2], parabit[3]}) {
        const auto at = *ftl.lookup(l);
        ASSERT_TRUE(ftl.relocatePage(l, ftl.chipAt(at).readPage(at), ops));
    }
    // A small hot set over static data: GC reclaims the hot blocks and
    // wear levelling migrates the cold ones, both remapping image LPNs.
    for (int i = 0; i < 600; ++i) {
        ops.clear();
        if (i % 4 != 3)
            overwrite_host(host[1 + i % 3]);
        else
            overwrite_parabit(parabit[2 + i % 2]);
    }
    ASSERT_GT(ftl.gcRuns(), gc_runs);
    ASSERT_GT(ftl.wearLevelMoves(), 0u);
    ASSERT_EQ(ftl.checkpointsTaken(), checkpoints);
    EXPECT_FALSE(ftl.lookup(host[0]));

    EXPECT_EQ(records(*ftl.durableLog().checkpoint, cfg.geometry),
              at_checkpoint);
    // Each chunk was copied once, at its first write after the
    // checkpoint; later writes found it unshared.
    EXPECT_EQ(ftl.mapChunkCopies(), copies + 3);
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
            const flash::Payload stored = ftl.chipAt(at).readPage(at);
            ASSERT_TRUE(ftl.relocatePage(l, stored, ops));
        }

        // Pages the step moved behind the reference's back (GC, wear
        // levelling, relocation) went to a GC-tagged copy naming them.
        for (auto &[lpn, e] : ref) {
            const auto a = ftl.lookup(lpn);
            ASSERT_TRUE(a) << "step " << step << " lpn " << lpn;
            if (lin(*a) == e.page)
                continue;
            const std::optional<flash::PageOob> oob =
                ftl.chipAt(*a).pageOob(*a);
            e.page = lin(*a);
            if (lpn == kNoLpn) {
                EXPECT_FALSE(oob.has_value());
                continue;
            }
            ASSERT_TRUE(oob.has_value());
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

        const std::vector<ImageRecord> img = r.freshImage();
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
