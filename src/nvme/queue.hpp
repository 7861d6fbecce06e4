/**
 * @file
 * NVMe queue-pair model: submission/completion rings with doorbells and
 * phase tags, plus a device-side dispatcher that executes fetched
 * commands (normal reads/writes and ParaBit formulas) against the
 * simulated SSD and posts completions with end-to-end latency.
 *
 * The paper's host/device split (Section 4.3.1) rides on ordinary NVMe
 * queues: ParaBit semantics travel inside read commands' reserved
 * fields, so the queueing machinery is unchanged — this module models
 * that machinery so queued-latency effects (arbitration, queue depth)
 * are visible in experiments.
 */

#ifndef PARABIT_NVME_QUEUE_HPP_
#define PARABIT_NVME_QUEUE_HPP_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "nvme/command.hpp"

namespace parabit::nvme {

/**
 * Completion status codes (NVMe status-field encoding, SCT in bits
 * 10:8, SC in bits 7:0).  The reliability layer reports ParaBit
 * execution failures through these so a host never mistakes a degraded
 * result for a clean one.
 */
enum Status : std::uint16_t
{
    kSuccess = 0x0000,
    /** Generic-command-status: invalid field in command (a formula
     *  whose batches the device cannot run in flash). */
    kInvalidField = 0x0002,
    /** Generic-command-status: internal device error (the reliability
     *  ladder could not produce a result it vouches for). */
    kInternalError = 0x0006,
    /** Generic-command-status: command aborted (host timeout/requeue). */
    kCommandAborted = 0x0007,
    /** Generic-command-status: attempted write to a write-protected
     *  range — the device health machine is in its read-only state and
     *  refuses to take new data it might not be able to keep. */
    kWriteProtected = 0x0020,
    /** Generic-command-status: LBA out of range — a read, write or
     *  formula operand names a page at or beyond the logical
     *  capacity; nothing reached the FTL. */
    kLbaOutOfRange = 0x0080,
    /** Media-error status type: unrecovered read error (operand data is
     *  gone — its plane or chip died). */
    kUnrecoveredReadError = 0x0281,
    /** Vendor-specific status type: the host-side admission controller
     *  shed the command before it entered the submission ring (queue
     *  backpressure or a degraded device refusing new formula work).
     *  Distinct from kCommandAborted: a shed command never executed. */
    kAdmissionShed = 0x0701,
};

const char *statusName(std::uint16_t status);

/** Completion-queue entry (the fields this model needs). */
struct Completion
{
    std::uint16_t cid = 0;    ///< command identifier
    std::uint16_t status = 0; ///< 0 = success
    bool phase = false;       ///< phase tag at the CQ slot
    Tick submittedAt = 0;
    Tick completedAt = 0;

    bool ok() const { return status == kSuccess; }
    Tick latency() const { return completedAt - submittedAt; }
};

/**
 * One submission/completion queue pair with ring semantics.
 *
 * The model keeps the NVMe invariants that matter behaviourally: fixed
 * depth, head/tail doorbells, full/empty detection (one slot reserved),
 * FIFO order, and the completion phase tag that flips on each CQ wrap.
 *
 * A completion never drops.  One that finds the CQ full is held, in
 * order, and reap() posts the oldest held completion into the slot it
 * frees, so the host reaps every completion in posting order.  Holding
 * moves no tick: the entry's completion time is stamped when it is
 * posted, not when a slot frees.
 */
class QueuePair
{
  public:
    QueuePair(std::uint16_t qid, std::uint16_t depth);

    std::uint16_t qid() const { return qid_; }
    std::uint16_t depth() const { return depth_; }

    /** @name Host side. */
    /// @{

    /**
     * Push a command at the SQ tail (rings the doorbell).  A fresh
     * command identifier is assigned and returned; nullopt if full.
     */
    std::optional<std::uint16_t> submit(NvmeCommand cmd, Tick now);

    /**
     * Refuse a command without it ever entering the submission ring:
     * allocate a fresh cid and post an immediate zero-latency completion
     * with @p status (admission shed, write-protected, ...).  The host
     * still reaps a terminal completion for the command — rejection is
     * loud, never a silent drop.  @return the refused command's cid.
     */
    std::uint16_t reject(Tick now, std::uint16_t status);

    /** Entries currently waiting in the SQ. */
    std::uint16_t sqOccupancy() const;

    /** Pop the next completion if its phase tag says it is fresh. */
    std::optional<Completion> reap();
    /// @}

    /** @name Device side. */
    /// @{

    /** Fetch the command at the SQ head, advancing it. */
    struct Fetched
    {
        NvmeCommand cmd;
        std::uint16_t cid;
        Tick submittedAt;
    };
    std::optional<Fetched> fetch();

    /** Post a completion for @p cid; a full CQ holds it (see class
     *  comment). */
    void complete(std::uint16_t cid, Tick submitted_at, Tick now,
                  std::uint16_t status = 0);
    /// @}

  private:
    struct SqSlot
    {
        NvmeCommand cmd;
        std::uint16_t cid;
        Tick submittedAt;
    };

    /** Write @p c into the CQ slot at the tail, or hold it while the CQ
     *  is full. */
    void place(Completion c);

    std::uint16_t qid_;
    std::uint16_t depth_;
    std::vector<SqSlot> sq_;
    std::vector<Completion> cq_;
    std::uint16_t sqHead_ = 0, sqTail_ = 0;
    std::uint16_t cqHead_ = 0, cqTail_ = 0;
    bool cqPhase_ = true; ///< device's current phase tag
    bool reapPhase_ = true; ///< phase the host expects next
    std::uint16_t nextCid_ = 0;
    /** Completions waiting for a CQ slot, oldest first; non-empty only
     *  while the CQ is full. */
    std::deque<Completion> held_;
};

} // namespace parabit::nvme

#endif // PARABIT_NVME_QUEUE_HPP_
