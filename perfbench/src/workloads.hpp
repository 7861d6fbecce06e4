/**
 * @file
 * The benchmark's three workloads and the device-level layer readings
 * they share.  Each workload is a closed loop driven from this single
 * thread through the public APIs (ParaBitDevice, HostInterface,
 * SsdDevice): the next op is sent only after the previous one
 * completed.  Every payload and LPN comes from the seed.
 */

#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "flash/op_sequences.hpp"
#include "measure.hpp"
#include "parabit/device.hpp"

namespace perfbench {

/** The six binary bitwise ops every workload draws from. */
inline constexpr std::array<parabit::flash::BitwiseOp, 6> kBinaryOps = {
    parabit::flash::BitwiseOp::kAnd,  parabit::flash::BitwiseOp::kOr,
    parabit::flash::BitwiseOp::kXor,  parabit::flash::BitwiseOp::kXnor,
    parabit::flash::BitwiseOp::kNand, parabit::flash::BitwiseOp::kNor,
};

/** paperSsd(), timing only: bulk ops over many-stripe operands placed
 *  per mode; stresses the scheduler and the event engine. */
PassOut runPaperBulk(std::uint64_t seed, bool traced);

/** paperSsd() with payloads: every binary op x mode on one-stripe
 *  operands, each result page checked against the host oracle. */
PassOut runPaperGrid(std::uint64_t seed, bool traced);

/** Small-page functional device behind two NVMe queue pairs: reads,
 *  overwrites, formulas and flushes; stresses host interface and FTL. */
PassOut runNvmeMix(std::uint64_t seed, bool traced);

/** @p n random pages of @p bits bits each. */
std::vector<parabit::BitVector> randomPages(std::size_t n, std::size_t bits,
                                            parabit::Rng &rng);

/** Summed busy ticks of every channel and plane resource. */
struct BusySnapshot
{
    double channelTicks = 0;
    double planeTicks = 0;
    parabit::Tick at = 0;

    static BusySnapshot take(parabit::core::ParaBitDevice &dev);
};

/**
 * Record the FTL, scheduler and controller layers of @p dev into @p out
 * (deterministic counts go to both `sim` and `layer`), the busy shares
 * between @p from and @p to, and the scratch-LPN headroom above
 * @p host_top (the highest LPN the workload owns).
 */
void addDeviceLayers(parabit::core::ParaBitDevice &dev, const TraceWindow &tw,
                     const BusySnapshot &from, const BusySnapshot &to,
                     parabit::nvme::Lpn host_top, PassOut &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP_
