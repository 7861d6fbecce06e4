/**
 * @file
 * ParaBitDevice: the library's primary public API.
 *
 * A ParaBitDevice wraps a simulated SSD, its FTL and the ParaBit
 * controller behind a small surface:
 *
 *   ParaBitDevice dev(ssd::SsdConfig::tiny());
 *   dev.writeData(0, pages_x);                 // host writes
 *   dev.writeData(100, pages_y);
 *   auto out = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, pages,
 *                          core::Mode::kReAllocate);
 *
 * Placement helpers expose the paper's pre-allocation strategies
 * (operand pairs, LSB-only layout), and every call advances the device
 * clock so that a sequence of operations yields end-to-end latency.
 */

#ifndef PARABIT_PARABIT_DEVICE_HPP_
#define PARABIT_PARABIT_DEVICE_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "parabit/controller.hpp"
#include "ssd/config.hpp"
#include "ssd/ssd.hpp"

namespace parabit::core {

/** Public facade over the simulated ParaBit SSD; see file comment. */
class ParaBitDevice
{
  public:
    explicit ParaBitDevice(const ssd::SsdConfig &cfg = ssd::SsdConfig::tiny());

    /** @name Data placement.
     * Every write below attempts all its pages, advances the device
     * clock past their traffic and returns whether every page was
     * written (false when the FTL ran out of space or program retries).
     */
    /// @{

    /** Normal host write of consecutive logical pages. */
    bool writeData(nvme::Lpn start, const std::vector<BitVector> &pages);

    /**
     * LSB-only placement (paper Section 5.5): MSB pages stay free so
     * chained ParaBit results can be dropped next to the operands.
     */
    bool writeDataLsbOnly(nvme::Lpn start, const std::vector<BitVector> &pages);

    /**
     * LSB-only placement pinned to one plane, so that several operand
     * streams share bitlines — the layout location-free operations
     * need.  @p plane is a flat plane index (< geometry.planesTotal()).
     */
    bool writeDataLsbOnlyInPlane(nvme::Lpn start,
                                 const std::vector<BitVector> &pages,
                                 std::uint32_t plane);

    /**
     * Co-locate two operand streams pairwise: page i of @p x_pages and
     * page i of @p y_pages share wordline i of the allocation.  This is
     * the paper's pre-computation allocation for the first operation.
     */
    bool writeOperandPair(nvme::Lpn x_start, nvme::Lpn y_start,
                          const std::vector<BitVector> &x_pages,
                          const std::vector<BitVector> &y_pages);

    /**
     * Timing-only variants (no payloads) for device-scale experiments.
     */
    bool writeMeta(nvme::Lpn start, std::uint32_t pages);
    bool writeMetaLsbOnly(nvme::Lpn start, std::uint32_t pages);
    bool writeMetaOperandPair(nvme::Lpn x_start, nvme::Lpn y_start,
                              std::uint32_t pages);

    /** Read back logical pages (ECC-clean path). */
    std::vector<BitVector> readData(nvme::Lpn start, std::uint32_t pages);
    /// @}

    /** @name Computation. */
    /// @{

    /** Bulk binary bitwise op over two @p pages-long operand ranges. */
    ExecResult bitwise(flash::BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
                       std::uint32_t pages, Mode mode,
                       bool transfer_results = true);

    /** Bulk unary NOT over one operand range; the NOT-LSB or NOT-MSB
     *  sequence follows each page's placement. */
    ExecResult bitwiseNot(nvme::Lpn x, std::uint32_t pages, Mode mode,
                          bool transfer_results = true);

    /**
     * Left-fold chain op over several operand ranges:
     * result = (((o0 op o1) op o2) ...).
     */
    ExecResult bitwiseChain(flash::BitwiseOp op,
                            const std::vector<nvme::Lpn> &operands,
                            std::uint32_t pages, Mode mode,
                            bool transfer_results = true,
                            std::optional<nvme::Lpn> result_lpn =
                                std::nullopt);

    /** Execute an arbitrary parsed batch list. */
    ExecResult execute(const std::vector<nvme::Batch> &batches, Mode mode,
                       bool transfer_results = true);
    /// @}

    /** @name Crash consistency. */
    /// @{

    /**
     * NVMe Flush semantics: force an FTL checkpoint so that every
     * acknowledged write is recoverable without a journal/OOB replay.
     * No-op (returns true) when recovery is disabled.
     */
    bool flush();

    /** NVMe shutdown notification (CC.SHN): checkpoint for a clean
     *  power-down.  @return false if the checkpoint did not commit. */
    bool shutdownNotify();

    /**
     * Sudden power loss + restart: runs SPOR on the SSD (see
     * ssd::SsdDevice::powerCycle), advances the device clock by the
     * simulated recovery time, and resets volatile controller state.
     */
    ssd::RecoveryReport powerCycle();
    /// @}

    /** Device clock: completion time of the latest accepted command. */
    Tick now() const { return now_; }

    ssd::SsdDevice &ssd() { return *ssd_; }
    const ssd::SsdDevice &ssd() const { return *ssd_; }
    Controller &controller() { return controller_; }

  private:
    std::unique_ptr<ssd::SsdDevice> ssd_;
    Controller controller_;
    Tick now_ = 0;
};

} // namespace parabit::core

#endif // PARABIT_PARABIT_DEVICE_HPP_
