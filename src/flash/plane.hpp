/**
 * @file
 * A flash plane: an independently operable array of blocks sharing one
 * set of bitlines and one latching-circuit column (data register L1 +
 * cache register L2).
 *
 * Blocks are materialised lazily so that device-scale geometries (half a
 * million blocks) cost nothing until touched; untouched blocks behave as
 * fully erased.  The plane finds them in a table indexed by block
 * number (femu's nand_plane.blk[]), grown on demand to the highest
 * block touched so far and never past blocksPerPlane, so an untouched
 * block costs one null pointer and a lookup is a bounds check and a
 * load.  Each block is its own allocation and never moves: a Block&
 * stays valid while the table grows.
 */

#ifndef PARABIT_FLASH_PLANE_HPP_
#define PARABIT_FLASH_PLANE_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "flash/block.hpp"
#include "flash/geometry.hpp"

namespace parabit::flash {

/** One plane; see file comment. */
class Plane
{
  public:
    Plane(const FlashGeometry &geom, bool store_data)
        : blocksPerPlane_(geom.blocksPerPlane),
          wordlinesPerBlock_(geom.wordlinesPerBlock),
          pageBits_(geom.pageBits()), storeData_(store_data)
    {}

    /** Access (and lazily create) block @p b. */
    Block &
    block(std::uint32_t b)
    {
        if (b < blocks_.size() && blocks_[b])
            return *blocks_[b];
        return materialise(b);
    }

    /** Block @p b if it has ever been touched, else nullptr. */
    const Block *
    blockIfExists(std::uint32_t b) const
    {
        return b < blocks_.size() ? blocks_[b].get() : nullptr;
    }

    bool storesData() const { return storeData_; }

    /** @name Fault state (driven by ssd::FaultInjector). */
    /// @{

    /** A dead plane rejects every array operation (sense/program/erase). */
    void setDead(bool dead) { dead_ = dead; }
    bool dead() const { return dead_; }

    /** Pin @p bitline's sense amplifier output to @p value. */
    void
    addStuckBitline(std::size_t bitline, bool value)
    {
        if (bitline < pageBits_)
            stuck_.push_back(StuckBitline{bitline, value});
    }

    /** Replace the stuck set wholesale (out-of-range entries dropped). */
    void
    setStuckBitlines(const std::vector<StuckBitline> &lines)
    {
        stuck_.clear();
        for (const StuckBitline &s : lines)
            addStuckBitline(s.bitline, s.value);
    }

    /** Stuck bitlines in the order they were added (the latch kernel
     *  pins them in this order, so a later entry wins). */
    const std::vector<StuckBitline> &stuckBitlines() const { return stuck_; }
    /// @}

  private:
    /** Create block @p b, growing the table to reach it. */
    Block &materialise(std::uint32_t b);

    // Geometry fields are held by value so Plane (and its owning Chip)
    // stays safely movable inside containers.
    std::uint32_t blocksPerPlane_;
    std::uint32_t wordlinesPerBlock_;
    std::size_t pageBits_;
    bool storeData_;
    bool dead_ = false;
    std::vector<StuckBitline> stuck_;
    /** Indexed by block number; null = never touched. */
    std::vector<std::unique_ptr<Block>> blocks_;
};

} // namespace parabit::flash

#endif // PARABIT_FLASH_PLANE_HPP_
