#include "nvme/queue.hpp"

#include "common/logging.hpp"

namespace parabit::nvme {

const char *
statusName(std::uint16_t status)
{
    switch (status) {
      case kSuccess: return "success";
      case kInvalidField: return "invalid-field";
      case kInternalError: return "internal-error";
      case kCommandAborted: return "command-aborted";
      case kWriteProtected: return "write-protected";
      case kLbaOutOfRange: return "lba-out-of-range";
      case kUnrecoveredReadError: return "unrecovered-read-error";
      case kAdmissionShed: return "admission-shed";
    }
    return "?";
}

QueuePair::QueuePair(std::uint16_t qid, std::uint16_t depth)
    : qid_(qid), depth_(depth), sq_(depth), cq_(depth)
{
    if (depth < 2)
        fatal("QueuePair: depth must be at least 2 (one slot reserved)");
}

std::optional<std::uint16_t>
QueuePair::submit(NvmeCommand cmd, Tick now)
{
    const std::uint16_t next = static_cast<std::uint16_t>((sqTail_ + 1) %
                                                          depth_);
    if (next == sqHead_)
        return std::nullopt; // ring full (one slot reserved)
    const std::uint16_t cid = nextCid_++;
    sq_[sqTail_] = SqSlot{cmd, cid, now};
    sqTail_ = next;
    return cid;
}

std::uint16_t
QueuePair::reject(Tick now, std::uint16_t status)
{
    const std::uint16_t cid = nextCid_++;
    place(Completion{cid, status, false, now, now});
    return cid;
}

std::uint16_t
QueuePair::sqOccupancy() const
{
    return static_cast<std::uint16_t>((sqTail_ + depth_ - sqHead_) % depth_);
}

std::optional<QueuePair::Fetched>
QueuePair::fetch()
{
    if (sqHead_ == sqTail_)
        return std::nullopt;
    const SqSlot &slot = sq_[sqHead_];
    Fetched f{slot.cmd, slot.cid, slot.submittedAt};
    sqHead_ = static_cast<std::uint16_t>((sqHead_ + 1) % depth_);
    return f;
}

void
QueuePair::complete(std::uint16_t cid, Tick submitted_at, Tick now,
                    std::uint16_t status)
{
    place(Completion{cid, status, false, submitted_at, now});
}

void
QueuePair::place(Completion c)
{
    const std::uint16_t next = static_cast<std::uint16_t>((cqTail_ + 1) %
                                                          depth_);
    if (next == cqHead_) {
        held_.push_back(c);
        return;
    }
    c.phase = cqPhase_;
    cq_[cqTail_] = c;
    cqTail_ = next;
    if (cqTail_ == 0)
        cqPhase_ = !cqPhase_; // phase tag flips on CQ wrap
}

std::optional<Completion>
QueuePair::reap()
{
    const Completion out = cq_[cqHead_];
    if (out.phase != reapPhase_)
        return std::nullopt; // nothing fresh at the head
    cqHead_ = static_cast<std::uint16_t>((cqHead_ + 1) % depth_);
    if (cqHead_ == 0)
        reapPhase_ = !reapPhase_;
    if (!held_.empty()) {
        place(held_.front());
        held_.pop_front();
    }
    return out;
}

} // namespace parabit::nvme
