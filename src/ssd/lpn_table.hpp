/**
 * @file
 * The FTL's page map: one table from logical page number to physical
 * page, kept in LPN order.
 *
 * Entries live in fixed-size chunks of kChunkEntries consecutive LPNs.
 * A chunk is allocated the first time one of its LPNs is mapped and is
 * found through a directory sorted by chunk number (lpn >> kChunkBits).
 * The directory covers the whole 64-bit LPN range rather than the
 * device's logical capacity, so the LPNs the controller's scratch
 * cursor hands out after wrapping past 0 (see ROADMAP) map like any
 * other and iterate last.
 *
 * A few chunk hints spare a recently used chunk the binary search: each
 * of kHints slots holds a chunk key and the directory index where that
 * chunk was last found.  A lookup compares its key with every slot, so
 * chunks whose keys differ by a multiple of kHints (two operands 16K
 * pages apart) do not evict each other; a search that finds a chunk no
 * slot holds takes the slots in turn.  A hint is used only after the
 * chunk at its index is checked to carry the key, so a chunk inserted
 * before it (which moves every later index), a copied directory or
 * clear() cannot make it point at the wrong chunk; at worst it misses
 * and the search runs.  find() refreshes hints through a const table,
 * so one table must not be read from two threads at once.
 *
 * Each chunk is one shared allocation.  Copying a table copies only
 * its directory, so the copy is a snapshot that shares every chunk
 * with the original; assign() and erase() copy a chunk before writing
 * it, but only while another table still shares it.  A checkpoint
 * image is such a snapshot (CheckpointImage::map), so a Flush costs
 * the directory plus the chunks written since the previous one.
 *
 * An entry is 16 bytes: the page's coordinates in the narrowest fields
 * every supported geometry fits (fits(); the Ftl constructor rejects
 * any other) and the mapped and scrambled flags.
 *
 * forEach() visits mapped LPNs in ascending order, which is the order
 * a checkpoint image is written in: no hash walk and no sort.  The
 * table answers only LPN -> page; which LPN a page holds is read off
 * the page's own OOB metadata (Ftl::lpnAt).
 */

#ifndef PARABIT_SSD_LPN_TABLE_HPP_
#define PARABIT_SSD_LPN_TABLE_HPP_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "flash/geometry.hpp"
#include "ssd/lpn.hpp"

namespace parabit::ssd {

/** LPN-ordered page map; see file comment. */
class LpnTable
{
  public:
    /** One LPN's slot (16 bytes).  No default member initialisers, so
     *  a chunk copy can skip zero-filling; an empty slot is written as
     *  Entry{}. */
    struct Entry
    {
        std::uint32_t block;
        std::uint16_t wordline;
        std::uint16_t channel;
        std::uint16_t chip;
        std::uint8_t die;
        std::uint8_t plane;
        bool msb;
        bool mapped;
        /** The stored bits are whitened (host write with scrambling). */
        bool scrambled;

        flash::PhysPageAddr
        addr() const
        {
            return {channel, chip, die, plane, block, wordline, msb};
        }
    };

    static constexpr unsigned kChunkBits = 12;
    static constexpr std::size_t kChunkEntries = std::size_t{1}
                                                 << kChunkBits;

    /** Whether every page address of @p g fits an Entry. */
    static bool
    fits(const flash::FlashGeometry &g)
    {
        constexpr std::uint32_t k16 = 1u << 16, k8 = 1u << 8; // counts
        return g.channels <= k16 && g.chipsPerChannel <= k16 &&
               g.wordlinesPerBlock <= k16 && g.diesPerChip <= k8 &&
               g.planesPerDie <= k8;
    }

    /** @p lpn's entry, or nullptr when @p lpn is unmapped.  Valid until
     *  the next assign(), erase() or clear(). */
    const Entry *
    find(Lpn lpn) const
    {
        const std::size_t c = chunkOf(lpn);
        if (c == chunks_.size())
            return nullptr;
        const Entry &e = chunks_[c].entries[lpn & kSlotMask];
        return e.mapped ? &e : nullptr;
    }

    /** Map @p lpn to @p a.  @return the entry it replaces (with
     *  `mapped` false when @p lpn was unmapped). */
    Entry
    assign(Lpn lpn, const flash::PhysPageAddr &a, bool scrambled)
    {
        const std::uint64_t key = lpn >> kChunkBits;
        const std::size_t c = locate(key);
        if (c == chunks_.size() || chunks_[c].key != key) {
            chunks_.insert(
                chunks_.begin() + static_cast<std::ptrdiff_t>(c),
                Chunk{key, std::make_shared<Entry[]>(kChunkEntries, Entry{})});
            remember(nextHint_, key, c);
        }
        Entry &e = writable(c)[lpn & kSlotMask];
        const Entry old = e;
        e = Entry{a.block,
                  static_cast<std::uint16_t>(a.wordline),
                  static_cast<std::uint16_t>(a.channel),
                  static_cast<std::uint16_t>(a.chip),
                  static_cast<std::uint8_t>(a.die),
                  static_cast<std::uint8_t>(a.plane),
                  a.msb,
                  true,
                  scrambled};
        size_ += old.mapped ? 0 : 1;
        return old;
    }

    /** Unmap @p lpn.  @return whether it was mapped. */
    bool
    erase(Lpn lpn)
    {
        const std::size_t c = chunkOf(lpn);
        if (c == chunks_.size() || !chunks_[c].entries[lpn & kSlotMask].mapped)
            return false;
        writable(c)[lpn & kSlotMask] = Entry{};
        --size_;
        return true;
    }

    void
    clear()
    {
        chunks_.clear();
        hints_.fill(Hint{});
        size_ = 0;
    }

    /** Mapped LPNs. */
    std::size_t size() const { return size_; }

    /** Chunks copied because a snapshot still shared them when they
     *  were written (counted since construction, copied with the
     *  table). */
    std::uint64_t chunkCopies() const { return chunkCopies_; }

    /** Call @p f(lpn, entry) for every mapped LPN, in ascending order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Chunk &c : chunks_) {
            const Lpn base = c.key << kChunkBits;
            for (std::size_t i = 0; i < kChunkEntries; ++i)
                if (c.entries[i].mapped)
                    f(base + i, c.entries[i]);
        }
    }

  private:
    struct Chunk
    {
        std::uint64_t key = 0; ///< lpn >> kChunkBits of every slot
        /** kChunkEntries slots, shared with every snapshot taken since
         *  the chunk was last written. */
        std::shared_ptr<Entry[]> entries;
    };

    /** Where the chunk with `key` was last found (file comment). */
    struct Hint
    {
        std::uint64_t key = ~std::uint64_t{0}; ///< no chunk's (keys < 2^52)
        std::uint32_t index = 0;
    };

    static constexpr Lpn kSlotMask = kChunkEntries - 1;
    /** Chunk hints kept (file comment). */
    static constexpr std::size_t kHints = 4;

    /** Chunk @p c's slots, copied first if a snapshot shares them. */
    Entry *
    writable(std::size_t c)
    {
        std::shared_ptr<Entry[]> &entries = chunks_[c].entries;
        if (entries.use_count() > 1) {
            auto own = std::make_shared_for_overwrite<Entry[]>(kChunkEntries);
            std::copy_n(entries.get(), kChunkEntries, own.get());
            entries = std::move(own);
            ++chunkCopies_;
        }
        return entries.get();
    }

    /** Index of the first chunk whose key is not below @p key. */
    std::size_t
    lowerBound(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(
                chunks_.begin(), chunks_.end(), key,
                [](const Chunk &x, std::uint64_t k) { return x.key < k; }) -
            chunks_.begin());
    }

    /** Hint slot @p slot now holds chunk @p key at index @p c; the
     *  next slot in turn moves on when it was @p slot. */
    void
    remember(std::size_t slot, std::uint64_t key, std::size_t c) const
    {
        hints_[slot] = Hint{key, static_cast<std::uint32_t>(c)};
        if (slot == nextHint_)
            nextHint_ = (nextHint_ + 1) % kHints;
    }

    /** lowerBound(@p key), from a hint of @p key when the chunk at its
     *  index carries @p key.  A search that finds the chunk refreshes
     *  the key's slot when an insert moved the chunk, else takes the
     *  next slot in turn. */
    std::size_t
    locate(std::uint64_t key) const
    {
        std::size_t slot = nextHint_;
        for (std::size_t i = 0; i < kHints; ++i) {
            if (hints_[i].key != key)
                continue;
            const std::uint32_t h = hints_[i].index;
            if (h < chunks_.size() && chunks_[h].key == key)
                return h;
            slot = i;
        }
        const std::size_t c = lowerBound(key);
        if (c < chunks_.size() && chunks_[c].key == key)
            remember(slot, key, c);
        return c;
    }

    /** Index of the chunk holding @p lpn, or chunks_.size() if none. */
    std::size_t
    chunkOf(Lpn lpn) const
    {
        const std::uint64_t key = lpn >> kChunkBits;
        const std::size_t c = locate(key);
        return c < chunks_.size() && chunks_[c].key == key ? c
                                                           : chunks_.size();
    }

    /** Sorted by key; a chunk is never dropped before clear(). */
    std::vector<Chunk> chunks_;
    /** Checked before use; see file comment. */
    mutable std::array<Hint, kHints> hints_{};
    mutable std::size_t nextHint_ = 0; ///< the slot a new chunk key takes
    std::size_t size_ = 0;
    std::uint64_t chunkCopies_ = 0;
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_LPN_TABLE_HPP_
