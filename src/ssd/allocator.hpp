/**
 * @file
 * Physical page allocator with ParaBit-aware placement modes.
 *
 * The allocator owns the per-plane free-block pools and write cursors.
 * Three placement modes exist:
 *
 *  - interleaved: normal density — each wordline's LSB page is written,
 *    then its MSB page (the common MLC shared-page order);
 *  - paired: both logical pages of a fresh wordline are handed out
 *    together, for ParaBit operand pairs (co-location);
 *  - LSB-only: only LSB pages are written and every MSB page is left
 *    free, the pre-allocation strategy of paper Section 5.5 that lets a
 *    chained ParaBit op drop its result into the free MSB of the next
 *    operand's wordline with a single program.
 *
 * Freed (erased) blocks return to a FIFO pool per plane, which evens out
 * erase counts across blocks (dynamic wear leveling).
 */

#ifndef PARABIT_SSD_ALLOCATOR_HPP_
#define PARABIT_SSD_ALLOCATOR_HPP_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "flash/geometry.hpp"

namespace parabit::ssd {

/** A co-located LSB/MSB page pair on one wordline. */
struct PagePair
{
    flash::PhysPageAddr lsb;
    flash::PhysPageAddr msb;
};

/** Physical page allocator; see file comment. */
class Allocator
{
  public:
    explicit Allocator(const flash::FlashGeometry &geom);

    std::uint32_t planeCount() const
    {
        return static_cast<std::uint32_t>(planes_.size());
    }

    /** Next plane in the channel-first striping order (advances). */
    flash::PlaneIndex nextPlane();

    /** Free blocks currently pooled in @p plane. */
    std::uint32_t freeBlocks(flash::PlaneIndex plane) const;

    /** Return an erased block to @p plane's pool (no-op if retired). */
    void noteErased(flash::PlaneIndex plane, std::uint32_t block);

    /**
     * Permanently remove @p block from circulation (bad-block
     * retirement after a program or erase failure).  The block leaves
     * the free pool, any write cursor parked on it is abandoned, and
     * noteErased() will never re-pool it.
     */
    void retireBlock(flash::PlaneIndex plane, std::uint32_t block);

    bool isRetired(flash::PlaneIndex plane, std::uint32_t block) const;

    /** Blocks retired across the whole device. */
    std::uint64_t retiredBlocks() const { return retiredCount_; }

    /**
     * Withdraw @p block from data allocation for FTL-internal use (the
     * SPOR checkpoint/journal region).  Unlike retirement the block is
     * healthy and not counted in retiredBlocks(); like retirement it
     * leaves the pool, abandons cursors, and is never re-pooled.
     */
    void reserveBlock(flash::PlaneIndex plane, std::uint32_t block);

    bool isReserved(flash::PlaneIndex plane, std::uint32_t block) const;

    /**
     * Reset @p plane's pool and cursors from a physically derived free
     * list (sudden-power-off recovery).  @p free_blocks replaces the
     * pool verbatim (order preserved — pass a deterministic order);
     * retired/reserved blocks are skipped.  Cursors restart empty, so
     * partially written blocks are left for GC to reclaim.
     */
    void rebuild(flash::PlaneIndex plane,
                 const std::vector<std::uint32_t> &free_blocks);

    /** Snapshot of @p plane's pooled free blocks, in pool order. */
    std::vector<std::uint32_t> poolBlocks(flash::PlaneIndex plane) const;

    /**
     * Allocate the next page in @p plane in interleaved order.
     * @return nullopt when the plane has no free blocks left.
     */
    std::optional<flash::PhysPageAddr> nextPage(flash::PlaneIndex plane);

    /** Allocate a fresh co-located pair in @p plane. */
    std::optional<PagePair> nextPair(flash::PlaneIndex plane);

    /** Allocate the next LSB page in @p plane, leaving its MSB free. */
    std::optional<flash::PhysPageAddr> nextLsbOnly(flash::PlaneIndex plane);

    /**
     * Blocks currently tied up in write cursors (not in the free pool,
     * not yet full).  GC must not victimise these.
     */
    bool isActiveBlock(flash::PlaneIndex plane, std::uint32_t block) const;

  private:
    struct Cursor
    {
        std::int64_t block = -1; ///< -1 = no active block
        std::uint32_t wordline = 0;
        bool msbPhase = false; ///< interleaved mode: next page is MSB
    };

    struct PlaneState
    {
        std::deque<std::uint32_t> freePool;
        Cursor interleaved; ///< shared by interleaved + paired modes
        Cursor lsbOnly;
        std::vector<bool> retired;  ///< lazily sized to blocksPerPlane
        std::vector<bool> reserved; ///< lazily sized to blocksPerPlane
    };

    bool ensureBlock(PlaneState &ps, Cursor &cur);
    flash::PhysPageAddr makeAddr(flash::PlaneIndex plane, const Cursor &cur,
                                 bool msb) const;

    flash::FlashGeometry geom_;
    std::vector<PlaneState> planes_;
    flash::PlaneIndex rrCursor_ = 0;
    std::uint64_t retiredCount_ = 0;
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_ALLOCATOR_HPP_
