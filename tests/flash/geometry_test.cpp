/**
 * @file
 * The one channel-major linearisation of flash/geometry: plane index
 * and plane coordinates, the chip index, and page index and address
 * convert into each other without loss.
 */

#include <gtest/gtest.h>

#include "flash/geometry.hpp"

namespace parabit::flash {
namespace {

TEST(PlaneCoord, RoundTripsThroughIndex)
{
    const FlashGeometry g = FlashGeometry::tiny();
    for (PlaneIndex i = 0; i < g.planesTotal(); ++i) {
        const PlaneCoord c = planeCoord(g, i);
        EXPECT_EQ(planeIndex(g, c), i);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.chip, g.chipsPerChannel);
        EXPECT_LT(c.die, g.diesPerChip);
        EXPECT_LT(c.plane, g.planesPerDie);
    }
}

TEST(PlaneCoord, PaperSsdChannelEdgesRoundTrip)
{
    const FlashGeometry g = FlashGeometry::paperSsd();
    const PlaneIndex per_channel = g.planesTotal() / g.channels;
    for (std::uint32_t ch = 0; ch < g.channels; ++ch) {
        const PlaneIndex first = ch * per_channel;
        const PlaneIndex last = first + per_channel - 1;
        const PlaneCoord f = planeCoord(g, first);
        const PlaneCoord l = planeCoord(g, last);
        EXPECT_EQ(planeIndex(g, f), first);
        EXPECT_EQ(planeIndex(g, l), last);
        EXPECT_EQ(f.channel, ch);
        EXPECT_EQ(f.chip + f.die + f.plane, 0u);
        EXPECT_EQ(l.channel, ch);
        EXPECT_EQ(l.chip, g.chipsPerChannel - 1);
        EXPECT_EQ(l.die, g.diesPerChip - 1);
        EXPECT_EQ(l.plane, g.planesPerDie - 1);
        // A page address of the plane names the plane back.
        EXPECT_EQ(planeIndex(g, planeAddr(g, last, 7, 9, true)), last);
    }
}

TEST(Geometry, ChipIndexAgreesWithPlaneCoord)
{
    for (const FlashGeometry &g :
         {FlashGeometry::tiny(), FlashGeometry::paperSsd()}) {
        const std::uint32_t planes_per_chip = g.diesPerChip * g.planesPerDie;
        for (PlaneIndex p = 0; p < g.planesTotal(); ++p) {
            const PlaneCoord c = planeCoord(g, p);
            const std::uint32_t chip = chipIndex(g, planeAddr(g, p));
            EXPECT_EQ(chip / g.chipsPerChannel, c.channel) << "plane " << p;
            EXPECT_EQ(chip % g.chipsPerChannel, c.chip) << "plane " << p;
            EXPECT_EQ(chip, p / planes_per_chip) << "plane " << p;
        }
        EXPECT_EQ(chipIndex(g, planeAddr(g, g.planesTotal() - 1)),
                  g.chips() - 1);
    }
}

TEST(Geometry, PageIndexRoundTripsAtPaperSsdCorners)
{
    const FlashGeometry g = FlashGeometry::paperSsd();
    // Every combination of each coordinate's first and last value.
    for (unsigned corner = 0; corner < (1u << 7); ++corner) {
        const auto pick = [corner](unsigned bit, std::uint32_t n) {
            return (corner >> bit) & 1u ? n - 1 : 0u;
        };
        const PhysPageAddr a{pick(0, g.channels),
                             pick(1, g.chipsPerChannel),
                             pick(2, g.diesPerChip),
                             pick(3, g.planesPerDie),
                             pick(4, g.blocksPerPlane),
                             pick(5, g.wordlinesPerBlock),
                             pick(6, 2) == 1};
        const std::uint64_t idx = linearPageIndex(g, a);
        EXPECT_LT(idx, g.totalPages()) << "corner " << corner;
        EXPECT_EQ(pageFromLinear(g, idx), a) << "corner " << corner;
    }
    EXPECT_EQ(linearPageIndex(g, PhysPageAddr{}), 0u);
    EXPECT_EQ(pageFromLinear(g, g.totalPages() - 1),
              (PhysPageAddr{g.channels - 1, g.chipsPerChannel - 1,
                            g.diesPerChip - 1, g.planesPerDie - 1,
                            g.blocksPerPlane - 1, g.wordlinesPerBlock - 1,
                            true}));
}

} // namespace
} // namespace parabit::flash
