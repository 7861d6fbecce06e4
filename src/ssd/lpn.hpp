/**
 * @file
 * The logical page number type the FTL, its page map and its recovery
 * image share.
 */

#ifndef PARABIT_SSD_LPN_HPP_
#define PARABIT_SSD_LPN_HPP_

#include <cstdint>

namespace parabit::ssd {

/** Host-visible logical page number. */
using Lpn = std::uint64_t;

/** OOB lpn value for pages that carry no logical mapping. */
inline constexpr Lpn kNoLpn = ~0ull;

} // namespace parabit::ssd

#endif // PARABIT_SSD_LPN_HPP_
