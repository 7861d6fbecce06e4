#include "flash/plane.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace parabit::flash {

Block &
Plane::materialise(std::uint32_t b)
{
    if (b >= blocksPerPlane_)
        panic("Plane::block: index out of range");
    if (b >= blocks_.size()) {
        // Grow geometrically, but never past the plane.
        if (b >= blocks_.capacity())
            blocks_.reserve(std::min<std::size_t>(
                blocksPerPlane_,
                std::max<std::size_t>(b + 1, 2 * blocks_.capacity())));
        blocks_.resize(std::size_t{b} + 1);
    }
    blocks_[b] =
        std::make_unique<Block>(wordlinesPerBlock_, pageBits_, storeData_);
    return *blocks_[b];
}

} // namespace parabit::flash
