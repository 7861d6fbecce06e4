#include "flash/geometry.hpp"

namespace parabit::flash {

std::uint64_t
linearPageIndex(const FlashGeometry &g, const PhysPageAddr &a)
{
    std::uint64_t idx = planeIndex(g, a);
    idx = idx * g.blocksPerPlane + a.block;
    idx = idx * g.wordlinesPerBlock + a.wordline;
    idx = idx * 2 + (a.msb ? 1 : 0);
    return idx;
}

PhysPageAddr
pageFromLinear(const FlashGeometry &g, std::uint64_t index)
{
    const bool msb = (index % 2) != 0;
    index /= 2;
    const auto wordline =
        static_cast<std::uint32_t>(index % g.wordlinesPerBlock);
    index /= g.wordlinesPerBlock;
    const auto block = static_cast<std::uint32_t>(index % g.blocksPerPlane);
    index /= g.blocksPerPlane;
    return planeAddr(g, static_cast<PlaneIndex>(index), block, wordline, msb);
}

} // namespace parabit::flash
