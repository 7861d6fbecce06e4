/**
 * @file
 * Queued host interface: multiple NVMe queue pairs in front of the
 * ParaBit device, with round-robin arbitration and per-command
 * completion latencies.
 *
 * This models the full command lifecycle of paper Fig 9/10: the host
 * encodes formulas into read commands (reserved-field semantics),
 * submits them to a queue pair, the device fetches with round-robin
 * arbitration across queues, CMD Parse reconstructs the batch list, the
 * controller executes it, and a completion with the end-to-end latency
 * posts to the completion queue.  Plain reads and writes share the same
 * queues, so mixed I/O + computation workloads exhibit realistic
 * queueing interference.
 *
 * Every command takes one path whatever its class.  The four submit
 * calls share one admission check.  Each fetched read, write or Flush,
 * and each formula's whole command group, becomes one in-flight record.
 * One routine retires it: stage attribution, then either the host
 * watchdog's abort-and-requeue or the completion.  Posting a completion
 * writes the CQ entry, the trace span, the SLO sample and the device
 * health feed, in that one place.
 */

#ifndef PARABIT_PARABIT_HOST_INTERFACE_HPP_
#define PARABIT_PARABIT_HOST_INTERFACE_HPP_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "nvme/parser.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "parabit/device.hpp"
#include "ssd/sched/transaction.hpp"

namespace parabit::core {

/** Host-visible command class, the unit of latency attribution and SLO
 *  tracking (obs.latency.* / obs.slo.* metric families). */
enum class OpClass : std::uint8_t
{
    kRead = 0,
    kWrite,
    kFlush,
    kFormula,
};

inline constexpr int kNumOpClasses = 4;

const char *opClassName(OpClass c);

/** Host-visible result of a finished command/formula. */
struct QueuedCompletion
{
    std::uint16_t qid = 0;
    std::uint16_t cid = 0; ///< cid of the formula's final command
    Tick latency = 0;      ///< submit -> completion
    /** NVMe completion status (nvme::Status); 0 = success.  Non-zero
     *  means @p pages must not be trusted. */
    std::uint16_t status = 0;
    /** Result pages for ParaBit formulas (empty for plain I/O). */
    std::vector<BitVector> pages;

    bool ok() const { return status == 0; }
};

/**
 * Host command-retry policy: what the host's watchdog does with a
 * command whose device-side completion would land past its deadline.
 *
 * A timed-out command is completed as nvme::kCommandAborted at the
 * deadline and re-submitted (fresh cid, fresh submission time) after an
 * exponential backoff — attempt n waits backoffBase * 2^(n-1) plus a
 * deterministic seeded jitter in [0, backoffBase), so retries from a
 * storm do not re-converge on the same instant.  After maxRequeues
 * aborted attempts the next submission runs to completion whatever its
 * latency, so a degraded device still makes forward progress and no
 * command ever vanishes without a terminal completion.
 *
 * The watchdog is a host timer: it judges every completion the device
 * posts, refusals by the device's health gate included, by when it
 * lands, whatever its status.
 *
 * Defaults: timeout 0 (watchdog off), one requeue, no backoff.
 * flash::kDefaultRequeueBackoff is the suggested backoffBase for
 * experiments that enable backoff.
 */
struct RetryPolicy
{
    /** Abort-and-requeue threshold; 0 disables the watchdog. */
    Tick commandTimeout = 0;
    /** Aborted re-submissions allowed per command; the attempt after
     *  the last requeue runs to completion.  0 = never requeue (the
     *  first attempt always runs to completion). */
    std::uint32_t maxRequeues = 1;
    /** First-retry backoff; doubles per attempt.  0 = immediate. */
    Tick backoffBase = 0;
    /** Seed of the jitter stream (common/rng.hpp); deterministic. */
    std::uint64_t jitterSeed = 0x9E3779B97F4A7C15ull;
};

/** Queue-fronted ParaBit device; see file comment. */
class HostInterface
{
  public:
    /**
     * @param dev the device to front
     * @param num_queues queue-pair count
     * @param depth entries per ring
     * @param mode execution scheme for ParaBit formulas
     */
    HostInterface(ParaBitDevice &dev, std::uint16_t num_queues,
                  std::uint16_t depth, Mode mode = Mode::kReAllocate);

    /** @name Host side. */
    /// @{

    /** Queue a plain page read. @return the cid, or nullopt if full. */
    std::optional<std::uint16_t> submitRead(std::uint16_t qid, nvme::Lpn lpn);

    /** Queue a plain page write (metadata-only payload). */
    std::optional<std::uint16_t> submitWrite(std::uint16_t qid,
                                             nvme::Lpn lpn);

    /** Queue an NVMe Flush: completes after the FTL checkpoint that
     *  makes every earlier acknowledged write recoverable committed. */
    std::optional<std::uint16_t> submitFlush(std::uint16_t qid);

    /**
     * Encode and queue a ParaBit formula.  All of its commands must fit
     * in the ring; otherwise nothing is queued and nullopt returns.
     * @return the cid of the final command (the one that completes).
     */
    std::optional<std::uint16_t> submitFormula(std::uint16_t qid,
                                               const nvme::Formula &formula);

    /** Reap one completion from @p qid, if any. */
    std::optional<QueuedCompletion> reap(std::uint16_t qid);
    /// @}

    /**
     * Device side: fetch every pending command (round-robin one command
     * per queue per turn), execute, and post completions.  Commands the
     * timeout policy re-queued are pumped again in the same call, so
     * every submitted command has a completion when this returns.
     * @return number of commands retired (aborted ones included).
     */
    std::size_t pump();

    /** Host-initiated shutdown notification (NVMe CC.SHN): drain every
     *  queue, then checkpoint the device for a clean power-down.
     *  @return false if the final checkpoint did not commit. */
    bool shutdownNotify();

    std::uint16_t queues() const
    {
        return static_cast<std::uint16_t>(qps_.size());
    }

    /** @name Command retry policy and admission control. */
    /// @{

    /** Install @p p (see RetryPolicy) and re-seed the jitter stream. */
    void setRetryPolicy(const RetryPolicy &p)
    {
        retry_ = p;
        jitterRng_ = Rng(p.jitterSeed);
    }

    /**
     * Admission controller: cap the per-queue submission backlog at
     * @p limit entries (0, the default, disables).  A submission that
     * would push the SQ past the cap is shed — the caller still gets a
     * cid and reaps an immediate nvme::kAdmissionShed completion, so
     * overload fails fast and loudly instead of growing an unbounded
     * wait.  A shed formula consumes one completion for the whole
     * group.
     */
    void setAdmissionLimit(std::uint16_t limit) { admissionLimit_ = limit; }
    std::uint16_t admissionLimit() const { return admissionLimit_; }

    /** @name Latency SLOs (obs/slo.hpp). */
    /// @{

    /**
     * Track @p cfg for @p cls completions under the "obs.slo.<class>"
     * metric prefix.  Windows advance on the *simulated* clock.  Served
     * completions are recorded: successes, device errors and watchdog
     * aborts.  Admission refusals are not, for any class: the admission
     * limit's kAdmissionShed and every health-gate refusal (a shed
     * formula, a read-only device's kWriteProtected, a failed device's
     * kInternalError).  Refusing work must not improve or poison the
     * latency objective.
     */
    void setSlo(OpClass cls, const obs::SloConfig &cfg);

    /** Close any open SLO window at the current device time so the
     *  exported gauges cover the tail of the run. */
    void finalizeSlo();

    /** The tracker for @p cls, or nullptr when setSlo was never called. */
    const obs::SloTracker *slo(OpClass cls) const
    {
        return slo_[static_cast<std::size_t>(cls)].get();
    }
    /// @}

    std::uint64_t timeouts() const { return timeouts_.value(); }
    std::uint64_t requeues() const { return requeues_.value(); }
    /** Commands refused by the admission controller or a degraded
     *  device's formula gate (nvme::kAdmissionShed), one per refusal:
     *  a refused attempt the watchdog aborts still counts. */
    std::uint64_t sheds() const { return sheds_.value(); }
    /** Writes refused by a read-only device (nvme::kWriteProtected),
     *  one per refusal, as sheds() counts. */
    std::uint64_t writeRejects() const { return writeRejects_.value(); }
    /// @}

  private:
    /** One fetched command on its way to its completion: a read, a
     *  write, a Flush, or a formula's whole command group. */
    struct InFlight
    {
        std::uint16_t qid = 0;
        std::uint16_t cid = 0; ///< the cid that completes
        OpClass cls = OpClass::kRead;
        std::uint16_t status = nvme::kSuccess;
        /** Refused by the device's health gate: it completes, but is no
         *  SLO sample. */
        bool refused = false;
        nvme::NvmeCommand cmd; ///< the fetched command
        Tick submittedAt = 0;
        /** Device clock when execution began; a command that booked no
         *  transactions completes here. */
        Tick started = 0;
        ssd::sched::TxGroup group{}; ///< plain I/O's scheduler transactions
        /** Attribution token of the command's scheduler submissions
         *  (only while metrics or tracing are on). */
        std::optional<std::uint64_t> token{};
    };
    // A round's fetch list and batch move records without per-command
    // constructor or destructor work.
    static_assert(std::is_trivially_copyable_v<InFlight>);

    /** A formula's command group in its SQ; it completes as one
     *  command under its final cid. */
    struct FormulaTicket
    {
        std::uint16_t finalCid;
        std::size_t cmdCount;
    };

    /**
     * The one way into an SQ for the submit calls: feed queue pressure
     * to the health machine, shed over the admission limit (the caller
     * gets the cid of an immediate nvme::kAdmissionShed completion; a
     * shed formula costs one completion for its whole group), and queue
     * all of @p cmds or none.  @return the last command's cid, or
     * nullopt when the ring cannot hold them all.
     */
    std::optional<std::uint16_t>
    enqueue(std::uint16_t qid, OpClass cls,
            std::span<const nvme::NvmeCommand> cmds);

    /** Push @p cmds into @p qid's SQ stamped @p at (the ring has room)
     *  and register a formula group's ticket.  @return the last cid. */
    std::uint16_t push(std::uint16_t qid, OpClass cls,
                       std::span<const nvme::NvmeCommand> cmds, Tick at);

    /** Run @p run inside @p f's attribution bracket (DESIGN §5.8.1):
     *  scheduler submissions made by @p run are charged to f's token.
     *  With metrics and tracing off no token is allocated. */
    template <class Run> void attributed(InFlight &f, Run &&run);

    /**
     * The device has served @p f by @p done: record its stages, then
     * either let the watchdog abort it at its deadline and re-submit
     * @p cmds (the command itself, or a formula's whole group), or post
     * its completion.
     */
    void retire(const InFlight &f, Tick done,
                std::span<const nvme::NvmeCommand> cmds);

    /** Complete @p f at @p at with @p status: CQ entry, trace span,
     *  SLO sample and health feed. */
    void post(const InFlight &f, Tick at, std::uint16_t status);

    /** Emit an async host-command span (submit -> completion) on this
     *  queue's trace track when the global sink is enabled.  Async
     *  events because in-flight commands of one queue overlap. */
    void noteCmdSpan(std::uint16_t qid, const char *name, Tick start,
                     Tick end, std::uint16_t status);

    ParaBitDevice *dev_;
    nvme::CmdParser parser_;
    Mode mode_;
    std::vector<nvme::QueuePair> qps_;
    /** Registration of in-flight formulas, per queue, FIFO. */
    std::vector<std::deque<FormulaTicket>> tickets_;
    /** Result pages held until the host reaps, keyed per queue FIFO. */
    std::vector<std::deque<QueuedCompletion>> results_;
    RetryPolicy retry_;
    Rng jitterRng_{RetryPolicy{}.jitterSeed};
    std::uint16_t admissionLimit_ = 0;
    obs::Counter timeouts_{"host.timeouts"};
    obs::Counter requeues_{"host.requeues"};
    obs::Counter sheds_{"host.sheds"};
    obs::Counter writeRejects_{"host.write_rejects"};
    /** Re-submitted commands and formulas (per queue): final cid ->
     *  aborted attempts consumed; a cid absent from the map is on its
     *  first attempt. */
    std::vector<std::unordered_map<std::uint16_t, std::uint32_t>> attempts_;
    std::uint64_t nextCmdSpanId_ = 0; ///< async trace span ids
    std::uint64_t nextCmdToken_ = 0;  ///< attribution tokens / flow ids
    /** obs.latency.<class>.<stage>, kNumCmdStages per class. */
    std::vector<obs::Hist> stageHist_;
    std::array<std::unique_ptr<obs::SloTracker>, kNumOpClasses> slo_;
};

} // namespace parabit::core

#endif // PARABIT_PARABIT_HOST_INTERFACE_HPP_
