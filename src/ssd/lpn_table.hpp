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
 * forEach() visits mapped LPNs in ascending order, which is the order
 * a checkpoint image is written in: no hash walk and no sort.  The
 * table answers only LPN -> page; which LPN a page holds is read off
 * the page's own OOB metadata (Ftl::lpnAt).
 */

#ifndef PARABIT_SSD_LPN_TABLE_HPP_
#define PARABIT_SSD_LPN_TABLE_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "flash/geometry.hpp"
#include "ssd/recovery.hpp"

namespace parabit::ssd {

/** LPN-ordered page map; see file comment. */
class LpnTable
{
  public:
    /** One LPN's slot (32 bytes). */
    struct Entry
    {
        flash::PhysPageAddr addr;
        bool mapped = false;
        /** The stored bits are whitened (host write with scrambling). */
        bool scrambled = false;
    };

    static constexpr unsigned kChunkBits = 12;
    static constexpr std::size_t kChunkEntries = std::size_t{1}
                                                 << kChunkBits;

    /** @p lpn's entry, or nullptr when @p lpn is unmapped. */
    const Entry *
    find(Lpn lpn) const
    {
        const std::size_t c = chunkOf(lpn);
        if (c == chunks_.size())
            return nullptr;
        const Entry &e = chunks_[c].entries[lpn & kSlotMask];
        return e.mapped ? &e : nullptr;
    }

    /** Map @p lpn to @p addr.  @return the entry it replaces (with
     *  `mapped` false when @p lpn was unmapped). */
    Entry
    assign(Lpn lpn, const flash::PhysPageAddr &addr, bool scrambled)
    {
        const std::uint64_t key = lpn >> kChunkBits;
        const std::size_t c = lowerBound(key);
        if (c == chunks_.size() || chunks_[c].key != key)
            chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c),
                           Chunk{key, std::vector<Entry>(kChunkEntries)});
        Entry &e = chunks_[c].entries[lpn & kSlotMask];
        const Entry old = e;
        e = Entry{addr, true, scrambled};
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
        chunks_[c].entries[lpn & kSlotMask] = Entry{};
        --size_;
        return true;
    }

    void
    clear()
    {
        chunks_.clear();
        size_ = 0;
    }

    /** Mapped LPNs. */
    std::size_t size() const { return size_; }

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
        std::vector<Entry> entries; ///< kChunkEntries slots
    };

    static constexpr Lpn kSlotMask = kChunkEntries - 1;

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

    /** Index of the chunk holding @p lpn, or chunks_.size() if none. */
    std::size_t
    chunkOf(Lpn lpn) const
    {
        const std::size_t c = lowerBound(lpn >> kChunkBits);
        return c < chunks_.size() && chunks_[c].key == lpn >> kChunkBits
                   ? c
                   : chunks_.size();
    }

    /** Sorted by key; a chunk is never freed before clear(). */
    std::vector<Chunk> chunks_;
    std::size_t size_ = 0;
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_LPN_TABLE_HPP_
