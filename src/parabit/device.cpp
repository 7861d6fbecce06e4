#include "parabit/device.hpp"

#include "common/logging.hpp"
#include "nvme/parser.hpp"

namespace parabit::core {

ParaBitDevice::ParaBitDevice(const ssd::SsdConfig &cfg)
    : ssd_(std::make_unique<ssd::SsdDevice>(cfg)), controller_(*ssd_)
{
}

bool
ParaBitDevice::writeData(nvme::Lpn start, const std::vector<BitVector> &pages)
{
    std::vector<const BitVector *> ptrs;
    ptrs.reserve(pages.size());
    for (const auto &p : pages)
        ptrs.push_back(&p);
    return ssd_->writePages(start, ptrs, now_);
}

bool
ParaBitDevice::writeDataLsbOnly(nvme::Lpn start,
                                const std::vector<BitVector> &pages)
{
    std::vector<ssd::PhysOp> ops;
    bool ok = true;
    for (std::size_t i = 0; i < pages.size(); ++i)
        if (!ssd_->ftl().writeLsbOnly(start + i,
                                      flash::makePayload(pages[i]), ops))
            ok = false;
    now_ = ssd_->scheduleOps(ops, now_);
    return ok;
}

bool
ParaBitDevice::writeOperandPair(nvme::Lpn x_start, nvme::Lpn y_start,
                                const std::vector<BitVector> &x_pages,
                                const std::vector<BitVector> &y_pages)
{
    if (x_pages.size() != y_pages.size())
        fatal("writeOperandPair: operand sizes differ");
    std::vector<ssd::PhysOp> ops;
    bool ok = true;
    for (std::size_t i = 0; i < x_pages.size(); ++i)
        if (!ssd_->ftl().writePair(x_start + i, y_start + i,
                                   flash::makePayload(x_pages[i]),
                                   flash::makePayload(y_pages[i]), ops))
            ok = false;
    now_ = ssd_->scheduleOps(ops, now_);
    return ok;
}

bool
ParaBitDevice::writeDataLsbOnlyInPlane(nvme::Lpn start,
                                       const std::vector<BitVector> &pages,
                                       std::uint32_t plane)
{
    std::vector<ssd::PhysOp> ops;
    bool ok = true;
    for (std::size_t i = 0; i < pages.size(); ++i)
        if (!ssd_->ftl().writeLsbOnly(start + i,
                                      flash::makePayload(pages[i]), ops,
                                      plane))
            ok = false;
    now_ = ssd_->scheduleOps(ops, now_);
    return ok;
}

bool
ParaBitDevice::writeMeta(nvme::Lpn start, std::uint32_t pages)
{
    std::vector<ssd::PhysOp> ops;
    bool ok = true;
    for (std::uint32_t i = 0; i < pages; ++i)
        if (!ssd_->ftl().writePage(start + i, nullptr, ops))
            ok = false;
    now_ = ssd_->scheduleOps(ops, now_);
    return ok;
}

bool
ParaBitDevice::writeMetaLsbOnly(nvme::Lpn start, std::uint32_t pages)
{
    std::vector<ssd::PhysOp> ops;
    bool ok = true;
    for (std::uint32_t i = 0; i < pages; ++i)
        if (!ssd_->ftl().writeLsbOnly(start + i, nullptr, ops))
            ok = false;
    now_ = ssd_->scheduleOps(ops, now_);
    return ok;
}

bool
ParaBitDevice::writeMetaOperandPair(nvme::Lpn x_start, nvme::Lpn y_start,
                                    std::uint32_t pages)
{
    std::vector<ssd::PhysOp> ops;
    bool ok = true;
    for (std::uint32_t i = 0; i < pages; ++i)
        if (!ssd_->ftl().writePair(x_start + i, y_start + i, nullptr,
                                   nullptr, ops))
            ok = false;
    now_ = ssd_->scheduleOps(ops, now_);
    return ok;
}

std::vector<BitVector>
ParaBitDevice::readData(nvme::Lpn start, std::uint32_t pages)
{
    std::vector<BitVector> out;
    now_ = ssd_->readPages(start, pages, &out, now_);
    return out;
}

ExecResult
ParaBitDevice::bitwise(flash::BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
                       std::uint32_t pages, Mode mode, bool transfer_results)
{
    ExecResult r = controller_.executeOp(op, x, y, pages, mode, now_,
                                         transfer_results);
    now_ = r.stats.end;
    return r;
}

ExecResult
ParaBitDevice::bitwiseNot(nvme::Lpn x, std::uint32_t pages, Mode mode,
                          bool transfer_results)
{
    ExecResult r =
        controller_.executeNot(x, pages, mode, now_, transfer_results);
    now_ = r.stats.end;
    return r;
}

ExecResult
ParaBitDevice::bitwiseChain(flash::BitwiseOp op,
                            const std::vector<nvme::Lpn> &operands,
                            std::uint32_t pages, Mode mode,
                            bool transfer_results,
                            std::optional<nvme::Lpn> result_lpn)
{
    const nvme::Formula f = nvme::Formula::chain(op, operands, pages);
    nvme::CmdParser parser(ssd_->geometry().pageBytes);
    ExecResult r = controller_.executeBatches(parser.buildBatches(f), mode,
                                              now_, transfer_results,
                                              result_lpn);
    now_ = r.stats.end;
    return r;
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
    ExecResult r = controller_.executeBatches(batches, mode, now_,
                                              transfer_results);
    now_ = r.stats.end;
    return r;
}

} // namespace parabit::core
