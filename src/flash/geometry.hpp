/**
 * @file
 * Flash array geometry and physical addressing.
 *
 * The evaluated SSD in the paper: 128 chips (we arrange them as 8
 * channels x 16 chips), 4 planes per chip, 8 KB pages, MLC (two pages
 * per wordline).  All knobs are configurable so tests can build tiny
 * arrays and benches can build the paper's 512 GB device.
 */

#ifndef PARABIT_FLASH_GEOMETRY_HPP_
#define PARABIT_FLASH_GEOMETRY_HPP_

#include <cstdint>

#include "common/units.hpp"

namespace parabit::flash {

/** Static shape of the flash array. */
struct FlashGeometry
{
    std::uint32_t channels = 8;
    std::uint32_t chipsPerChannel = 16;
    std::uint32_t diesPerChip = 1;
    std::uint32_t planesPerDie = 4;
    std::uint32_t blocksPerPlane = 512;
    std::uint32_t wordlinesPerBlock = 64;
    Bytes pageBytes = 8 * bytes::kKiB;

    std::uint32_t chips() const { return channels * chipsPerChannel; }
    std::uint32_t pagesPerBlock() const { return wordlinesPerBlock * 2; }
    std::uint32_t planesTotal() const
    {
        return chips() * diesPerChip * planesPerDie;
    }
    std::uint64_t pagesPerPlane() const
    {
        return static_cast<std::uint64_t>(blocksPerPlane) * pagesPerBlock();
    }
    std::uint64_t totalPages() const
    {
        return pagesPerPlane() * planesTotal();
    }
    Bytes capacityBytes() const { return totalPages() * pageBytes; }
    std::size_t pageBits() const
    {
        return static_cast<std::size_t>(pageBytes) * 8;
    }

    /**
     * Size of one "plane stripe": one page from every plane in the
     * device.  A maximally parallel ParaBit operation processes two
     * operands of this size at once (the paper's 8 MB figure for the
     * evaluated configuration counts both pages of the stripe).
     */
    Bytes planeStripeBytes() const
    {
        return static_cast<Bytes>(planesTotal()) * pageBytes;
    }

    /** Geometry of the paper's evaluated SSD (512 GB, 128 chips). */
    static FlashGeometry paperSsd();

    /** A tiny array for functional unit tests. */
    static FlashGeometry tiny();
};

inline FlashGeometry
FlashGeometry::paperSsd()
{
    // The paper's evaluated device: 512 GB, 128 chips, 8 KB pages, and
    // "a parallel bitwise operation with two 8 MB operands" — which
    // pins the parallel page count at 1024, i.e. two dies of four
    // planes per chip (the common internal organisation of 512 GB MLC
    // parts; the paper's "4 planes per chip" counts planes per die).
    FlashGeometry g;
    g.channels = 8;
    g.chipsPerChannel = 16;
    g.diesPerChip = 2;
    g.planesPerDie = 4;
    // 512 GiB / 1024 planes = 512 MiB per plane
    // = 512 blocks x 64 WLs x 2 pages x 8 KiB.
    g.blocksPerPlane = 512;
    g.wordlinesPerBlock = 64;
    g.pageBytes = 8 * bytes::kKiB;
    return g;
}

inline FlashGeometry
FlashGeometry::tiny()
{
    FlashGeometry g;
    g.channels = 2;
    g.chipsPerChannel = 2;
    g.diesPerChip = 1;
    g.planesPerDie = 2;
    g.blocksPerPlane = 8;
    g.wordlinesPerBlock = 8;
    g.pageBytes = 64; // 512-bit pages keep functional tests fast
    return g;
}

/** Physical address of a logical flash page. */
struct PhysPageAddr
{
    std::uint32_t channel = 0;
    std::uint32_t chip = 0;  ///< within the channel
    std::uint32_t die = 0;   ///< within the chip
    std::uint32_t plane = 0; ///< within the die
    std::uint32_t block = 0; ///< within the plane
    std::uint32_t wordline = 0;
    bool msb = false; ///< false = LSB page, true = MSB page

    bool operator==(const PhysPageAddr &) const = default;

    /** True if @p other shares this page's wordline (the ParaBit
     *  co-location requirement). */
    bool
    sameWordline(const PhysPageAddr &other) const
    {
        return channel == other.channel && chip == other.chip &&
               die == other.die && plane == other.plane &&
               block == other.block && wordline == other.wordline;
    }

    /** True if @p other sits on the same bitlines (same plane & block
     *  column, any wordline) — the location-free requirement. */
    bool
    sameBitlines(const PhysPageAddr &other) const
    {
        return channel == other.channel && chip == other.chip &&
               die == other.die && plane == other.plane;
    }
};

/**
 * @name Linearisation.
 *
 * The one channel-major order of the device's resources: channel, then
 * chip within the channel, die, plane, block, wordline and page.  The
 * chip array, the per-plane allocator and scheduler state, the fault
 * schedule and every map keyed by physical position index in this
 * order, so each converts through these helpers.
 */
/// @{

/** Flat plane index across the whole device. */
using PlaneIndex = std::uint32_t;

/** The geometric coordinates of one plane. */
struct PlaneCoord
{
    std::uint32_t channel, chip, die, plane;
};

/** Flat index of the chip holding @p a: the position of the chip in a
 *  device's chip array. */
inline std::uint32_t
chipIndex(const FlashGeometry &g, const PhysPageAddr &a)
{
    return a.channel * g.chipsPerChannel + a.chip;
}

inline PlaneIndex
planeIndex(const FlashGeometry &g, const PlaneCoord &c)
{
    return ((c.channel * g.chipsPerChannel + c.chip) * g.diesPerChip +
            c.die) *
               g.planesPerDie +
           c.plane;
}

/** Flat index of the plane holding @p a. */
inline PlaneIndex
planeIndex(const FlashGeometry &g, const PhysPageAddr &a)
{
    return planeIndex(g, PlaneCoord{a.channel, a.chip, a.die, a.plane});
}

/** Inverse of planeIndex(). */
inline PlaneCoord
planeCoord(const FlashGeometry &g, PlaneIndex idx)
{
    PlaneCoord c;
    c.plane = idx % g.planesPerDie;
    idx /= g.planesPerDie;
    c.die = idx % g.diesPerChip;
    idx /= g.diesPerChip;
    c.chip = idx % g.chipsPerChannel;
    c.channel = idx / g.chipsPerChannel;
    return c;
}

/** Address of page (@p block, @p wordline, @p msb) of flat plane
 *  @p idx; the defaults give the plane's first page. */
inline PhysPageAddr
planeAddr(const FlashGeometry &g, PlaneIndex idx, std::uint32_t block = 0,
          std::uint32_t wordline = 0, bool msb = false)
{
    const PlaneCoord c = planeCoord(g, idx);
    return PhysPageAddr{c.channel, c.chip, c.die, c.plane,
                        block,     wordline, msb};
}

/** Linearise @p a to a unique page index within @p g (for map keys). */
std::uint64_t linearPageIndex(const FlashGeometry &g, const PhysPageAddr &a);

/** Inverse of linearPageIndex(). */
PhysPageAddr pageFromLinear(const FlashGeometry &g, std::uint64_t index);
/// @}

} // namespace parabit::flash

#endif // PARABIT_FLASH_GEOMETRY_HPP_
