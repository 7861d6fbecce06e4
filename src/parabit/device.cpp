#include "parabit/device.hpp"

#include "common/logging.hpp"

namespace parabit::core {

using Shape = ssd::SsdDevice::PageShape;

ParaBitDevice::ParaBitDevice(const ssd::SsdConfig &cfg)
    : ssd_(std::make_unique<ssd::SsdDevice>(cfg)), controller_(*ssd_),
      parser_(cfg.geometry.pageBytes)
{
}

bool
ParaBitDevice::writeData(nvme::Lpn start, const std::vector<BitVector> &pages)
{
    return ssd_->place({.start = start, .pages = pages.size(), .data = pages},
                       now_);
}

bool
ParaBitDevice::writeDataLsbOnly(nvme::Lpn start,
                                const std::vector<BitVector> &pages)
{
    return ssd_->place({.shape = Shape::kLsbOnly, .start = start,
                        .pages = pages.size(), .data = pages},
                       now_);
}

bool
ParaBitDevice::writeDataLsbOnlyInPlane(nvme::Lpn start,
                                       const std::vector<BitVector> &pages,
                                       std::uint32_t plane)
{
    return ssd_->place({.shape = Shape::kLsbOnly, .start = start,
                        .pages = pages.size(), .data = pages, .plane = plane},
                       now_);
}

bool
ParaBitDevice::writeOperandPair(nvme::Lpn x_start, nvme::Lpn y_start,
                                const std::vector<BitVector> &x_pages,
                                const std::vector<BitVector> &y_pages)
{
    if (x_pages.size() != y_pages.size())
        fatal("writeOperandPair: operand sizes differ");
    return ssd_->place({.shape = Shape::kPair, .start = x_start,
                        .pairStart = y_start, .pages = x_pages.size(),
                        .data = x_pages, .pairData = y_pages},
                       now_);
}

bool
ParaBitDevice::writeMeta(nvme::Lpn start, std::uint32_t pages)
{
    return ssd_->place({.start = start, .pages = pages}, now_);
}

bool
ParaBitDevice::writeMetaLsbOnly(nvme::Lpn start, std::uint32_t pages)
{
    return ssd_->place(
        {.shape = Shape::kLsbOnly, .start = start, .pages = pages}, now_);
}

bool
ParaBitDevice::writeMetaOperandPair(nvme::Lpn x_start, nvme::Lpn y_start,
                                    std::uint32_t pages)
{
    return ssd_->place({.shape = Shape::kPair, .start = x_start,
                        .pairStart = y_start, .pages = pages},
                       now_);
}

std::vector<BitVector>
ParaBitDevice::readData(nvme::Lpn start, std::uint32_t pages)
{
    std::vector<BitVector> out;
    now_ = ssd_->readPages(start, pages, &out, now_);
    return out;
}

ExecResult
ParaBitDevice::compute(const std::vector<nvme::Batch> &batches, Mode mode,
                       bool transfer_results,
                       std::optional<nvme::Lpn> result_lpn)
{
    ExecResult r = controller_.executeBatches(batches, mode, now_,
                                              transfer_results, result_lpn);
    now_ = r.stats.end;
    return r;
}

ExecResult
ParaBitDevice::bitwise(flash::BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
                       std::uint32_t pages, Mode mode, bool transfer_results)
{
    return bitwiseChain(op, {x, y}, pages, mode, transfer_results);
}

ExecResult
ParaBitDevice::bitwiseNot(nvme::Lpn x, std::uint32_t pages, Mode mode,
                          bool transfer_results)
{
    // The unary page op: either NOT names it, and each page senses with
    // the flavour of the page it reads.
    return bitwiseChain(flash::BitwiseOp::kNotLsb, {x, x}, pages, mode,
                        transfer_results);
}

ExecResult
ParaBitDevice::bitwiseChain(flash::BitwiseOp op,
                            const std::vector<nvme::Lpn> &operands,
                            std::uint32_t pages, Mode mode,
                            bool transfer_results,
                            std::optional<nvme::Lpn> result_lpn)
{
    return compute(
        parser_.buildBatches(nvme::Formula::chain(op, operands, pages)),
        mode, transfer_results, result_lpn);
}

bool
ParaBitDevice::flush()
{
    if (!ssd_->ftl().recoveryEnabled())
        return true;
    std::vector<ssd::PhysOp> ops;
    const bool ok = ssd_->ftl().checkpoint(ops);
    now_ = ssd_->scheduleOps(ops, now_);
    return ok;
}

bool
ParaBitDevice::shutdownNotify()
{
    return flush();
}

ssd::RecoveryReport
ParaBitDevice::powerCycle()
{
    ssd::RecoveryReport rep = ssd_->powerCycle(now_);
    now_ += rep.scanTime;
    controller_.onPowerCycle();
    return rep;
}

ExecResult
ParaBitDevice::execute(const std::vector<nvme::Batch> &batches, Mode mode,
                       bool transfer_results)
{
    return compute(batches, mode, transfer_results);
}

} // namespace parabit::core
