#include "parabit/host_interface.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "ssd/health.hpp"
#include "ssd/sched/scheduler.hpp"

namespace parabit::core {

namespace {

/** Stage axis of the obs.latency.<class>.<stage> histogram family. */
enum CmdStage : std::size_t
{
    kStageTotal = 0, ///< submission -> terminal completion
    kStageSqWait,    ///< submission -> device fetch
    kStageQueue,     ///< scheduler-queue wait (contention)
    kStageXferIn,
    kStageArray,
    kStageXferOut,
    kStageSuspend, ///< suspend + resume transition overhead
    kNumCmdStages,
};

const char *const kStageNames[kNumCmdStages] = {
    "total", "sq_wait", "queue", "xfer_in", "array", "xfer_out", "suspend",
};

/** Map a controller execution status onto the NVMe completion field. */
std::uint16_t
toNvmeStatus(ExecStatus s)
{
    switch (s) {
      case ExecStatus::kOk: return nvme::kSuccess;
      case ExecStatus::kUncorrectable: return nvme::kInternalError;
      case ExecStatus::kDataLoss: return nvme::kUnrecoveredReadError;
    }
    return nvme::kInternalError;
}

OpClass
opClassOf(nvme::Opcode op)
{
    switch (op) {
      case nvme::Opcode::kFlush: return OpClass::kFlush;
      case nvme::Opcode::kWrite: return OpClass::kWrite;
      case nvme::Opcode::kRead: return OpClass::kRead;
    }
    return OpClass::kRead;
}

/** A whole-page read or write of @p lpn. */
nvme::NvmeCommand
pageCommand(nvme::Opcode op, nvme::Lpn lpn, std::uint64_t sectors_per_page)
{
    nvme::NvmeCommand c;
    c.setOpcode(op);
    c.setSlba(lpn * sectors_per_page);
    c.setNlb(static_cast<std::uint16_t>(sectors_per_page - 1));
    return c;
}

} // namespace

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::kRead: return "read";
      case OpClass::kWrite: return "write";
      case OpClass::kFlush: return "flush";
      case OpClass::kFormula: return "formula";
    }
    return "?";
}

HostInterface::HostInterface(ParaBitDevice &dev, std::uint16_t num_queues,
                             std::uint16_t depth, Mode mode)
    : dev_(&dev), parser_(dev.ssd().geometry().pageBytes), mode_(mode)
{
    if (num_queues == 0)
        fatal("HostInterface: need at least one queue pair");
    qps_.reserve(num_queues);
    for (std::uint16_t q = 0; q < num_queues; ++q)
        qps_.emplace_back(q, depth);
    tickets_.resize(num_queues);
    results_.resize(num_queues);
    attempts_.resize(num_queues);
    stageHist_.reserve(static_cast<std::size_t>(kNumOpClasses) *
                       kNumCmdStages);
    for (int c = 0; c < kNumOpClasses; ++c) {
        for (std::size_t s = 0; s < kNumCmdStages; ++s) {
            stageHist_.emplace_back(
                std::string("obs.latency.") +
                    opClassName(static_cast<OpClass>(c)) + "." +
                    kStageNames[s],
                0.0, 10000.0, 100);
        }
    }
}

void
HostInterface::setSlo(OpClass cls, const obs::SloConfig &cfg)
{
    slo_[static_cast<std::size_t>(cls)] = std::make_unique<obs::SloTracker>(
        std::string("obs.slo.") + opClassName(cls), cfg);
}

void
HostInterface::finalizeSlo()
{
    for (const auto &t : slo_) {
        if (t)
            t->finalize(dev_->now());
    }
}

void
HostInterface::noteCmdSpan(std::uint16_t qid, const char *name, Tick start,
                           Tick end, std::uint16_t status)
{
    obs::TraceSink *sink = obs::TraceSink::global();
    if (sink == nullptr)
        return;
    const obs::TrackId t =
        sink->track("host", "queue " + std::to_string(qid));
    const std::uint64_t id = nextCmdSpanId_++;
    sink->asyncBegin(t, "nvme", name, id, start,
                     {{"status", std::to_string(status), false}});
    sink->asyncEnd(t, "nvme", name, id, std::max(end, start));
}

std::optional<std::uint16_t>
HostInterface::enqueue(std::uint16_t qid, OpClass cls,
                       std::span<const nvme::NvmeCommand> cmds)
{
    nvme::QueuePair &qp = qps_.at(qid);
    const std::size_t occupied = qp.sqOccupancy() + cmds.size();
    if (ssd::DeviceHealth *health = dev_->ssd().health()) {
        if (static_cast<double>(occupied) >=
            dev_->ssd().config().health.queuePressureFraction *
                static_cast<double>(qp.depth()))
            health->noteQueuePressure();
    }
    const Tick now = dev_->now();
    if (admissionLimit_ != 0 && occupied > admissionLimit_) {
        const std::uint16_t cid = qp.reject(now, nvme::kAdmissionShed);
        ++sheds_;
        noteCmdSpan(qid, "shed", now, now, nvme::kAdmissionShed);
        return cid;
    }
    if (occupied >= qp.depth())
        return std::nullopt; // all or nothing; one slot stays reserved
    return push(qid, cls, cmds, now);
}

std::uint16_t
HostInterface::push(std::uint16_t qid, OpClass cls,
                    std::span<const nvme::NvmeCommand> cmds, Tick at)
{
    std::uint16_t last = 0;
    for (const nvme::NvmeCommand &c : cmds) {
        const auto cid = qps_[qid].submit(c, at);
        if (!cid)
            panic("HostInterface: submission ring overflow");
        last = *cid;
    }
    if (cls == OpClass::kFormula)
        tickets_[qid].push_back(FormulaTicket{last, cmds.size()});
    return last;
}

std::optional<std::uint16_t>
HostInterface::submitRead(std::uint16_t qid, nvme::Lpn lpn)
{
    const nvme::NvmeCommand c =
        pageCommand(nvme::Opcode::kRead, lpn, parser_.sectorsPerPage());
    return enqueue(qid, OpClass::kRead, {&c, 1});
}

std::optional<std::uint16_t>
HostInterface::submitWrite(std::uint16_t qid, nvme::Lpn lpn)
{
    const nvme::NvmeCommand c =
        pageCommand(nvme::Opcode::kWrite, lpn, parser_.sectorsPerPage());
    return enqueue(qid, OpClass::kWrite, {&c, 1});
}

std::optional<std::uint16_t>
HostInterface::submitFlush(std::uint16_t qid)
{
    nvme::NvmeCommand c;
    c.setOpcode(nvme::Opcode::kFlush);
    return enqueue(qid, OpClass::kFlush, {&c, 1});
}

std::optional<std::uint16_t>
HostInterface::submitFormula(std::uint16_t qid, const nvme::Formula &formula)
{
    const auto cmds = parser_.encode(formula);
    if (cmds.empty())
        return std::nullopt;
    return enqueue(qid, OpClass::kFormula, cmds);
}

std::optional<QueuedCompletion>
HostInterface::reap(std::uint16_t qid)
{
    auto c = qps_.at(qid).reap();
    if (!c)
        return std::nullopt;
    QueuedCompletion out;
    out.qid = qid;
    out.cid = c->cid;
    out.latency = c->latency();
    out.status = c->status;
    // Attach result pages if this cid finished a formula.  Pages of a
    // failed formula are dropped here: an errored completion must never
    // hand data to the host.
    auto &pending = results_.at(qid);
    if (!pending.empty() && pending.front().cid == c->cid) {
        if (out.ok())
            out.pages = std::move(pending.front().pages);
        pending.pop_front();
    }
    return out;
}

template <class Run>
void
HostInterface::attributed(InFlight &f, Run &&run)
{
    if (obs::MetricsRegistry::global().enabled() ||
        obs::TraceSink::global() != nullptr) {
        f.token = nextCmdToken_++;
        dev_->ssd().scheduler().beginCommandAttribution(*f.token);
    }
    run();
    if (f.token)
        dev_->ssd().scheduler().endCommandAttribution();
}

void
HostInterface::post(const InFlight &f, Tick at, std::uint16_t status)
{
    qps_[f.qid].complete(f.cid, f.submittedAt, at, status);
    noteCmdSpan(f.qid, opClassName(f.cls), f.submittedAt, at, status);
    // A refusal never entered service, so it is no latency sample; the
    // watchdog's abort of one is.
    const auto &slo = slo_[static_cast<std::size_t>(f.cls)];
    if (slo && (!f.refused || status == nvme::kCommandAborted))
        slo->record(at - f.submittedAt, at);
    ssd::DeviceHealth *health = dev_->ssd().health();
    if (health && status == nvme::kUnrecoveredReadError)
        health->noteUncorrectable();
}

void
HostInterface::retire(const InFlight &f, Tick done,
                      std::span<const nvme::NvmeCommand> cmds)
{
    // Stage attribution: obs.latency.<class>.* and the flow that links
    // the command's span to the device spans that served it.  A plain
    // command that booked no transactions (a Flush never does) has only
    // its total and SQ wait.  Flow events carry explicit timestamps, so
    // emitting the start here rather than at submission is harmless.
    if (f.token) {
        const ssd::sched::StageTicks st =
            dev_->ssd().scheduler().takeCommandStages(*f.token);
        const auto sample = [&](CmdStage stage, Tick t) {
            stageHist_[static_cast<std::size_t>(f.cls) * kNumCmdStages +
                       stage]
                .sample(ticks::toUs(t));
        };
        sample(kStageTotal, done - f.submittedAt);
        sample(kStageSqWait, f.started - f.submittedAt);
        if (f.cls == OpClass::kFormula || !f.group.empty()) {
            using PK = ssd::sched::PhaseKind;
            const auto booked = [&st](PK k) {
                return st.phase[static_cast<std::size_t>(k)];
            };
            sample(kStageQueue, st.queueWait);
            sample(kStageXferIn, booked(PK::kXferIn));
            sample(kStageArray, booked(PK::kArray));
            sample(kStageXferOut, booked(PK::kXferOut));
            sample(kStageSuspend, booked(PK::kSuspend) + booked(PK::kResume));
            if (obs::TraceSink *sink = obs::TraceSink::global()) {
                const obs::TrackId t = sink->track(
                    "host", "queue " + std::to_string(f.qid));
                sink->flowStart(t, obs::kNvmeFlowCat, obs::kNvmeFlowName,
                                *f.token, f.submittedAt);
                sink->flowEnd(t, obs::kNvmeFlowCat, obs::kNvmeFlowName,
                              *f.token, done);
            }
        }
    }

    // The host watchdog judges every completion by when it lands.
    auto &attempts = attempts_[f.qid];
    std::uint32_t attempt = 0;
    if (const auto it = attempts.find(f.cid); it != attempts.end()) {
        attempt = it->second;
        attempts.erase(it);
    }
    const Tick deadline = f.submittedAt + retry_.commandTimeout;
    if (retry_.commandTimeout == 0 || attempt >= retry_.maxRequeues ||
        done <= deadline) {
        post(f, done, f.status);
        return;
    }
    // Abort at the deadline and re-submit @p cmds after the backoff:
    // backoffBase * 2^attempt, the shift clamped well below the Tick
    // width, plus a seeded jitter draw so a storm's retries do not
    // re-converge on one instant.
    ++timeouts_;
    post(f, deadline, nvme::kCommandAborted);
    Tick backoff = 0;
    if (retry_.backoffBase > 0)
        backoff = (retry_.backoffBase << std::min(attempt, 20u)) +
                  jitterRng_.below(retry_.backoffBase);
    attempts.emplace(push(f.qid, f.cls, cmds, done + backoff), attempt + 1);
    ++requeues_;
}

std::size_t
HostInterface::pump()
{
    ssd::DeviceHealth *health = dev_->ssd().health();
    std::size_t retired = 0;

    // The health gate, asked as each command executes: a degraded
    // device sheds formulas (deferrable work the host can route
    // elsewhere), a read-only one refuses writes with a status the host
    // can tell apart from an execution failure, and a failed one
    // vouches for nothing.  A Flush always runs.  @return true when
    // @p f is refused; its status and counter are set.
    const auto refuse = [&](InFlight &f) {
        if (health == nullptr || f.cls == OpClass::kFlush)
            return false;
        f.refused = !(f.cls == OpClass::kRead    ? health->admitRead()
                      : f.cls == OpClass::kWrite ? health->admitWrite()
                                                 : health->admitFormula());
        if (!f.refused)
            return false;
        if (!health->admitRead()) {
            f.status = nvme::kInternalError;
        } else if (f.cls == OpClass::kWrite) {
            f.status = nvme::kWriteProtected;
            ++writeRejects_;
        } else {
            f.status = nvme::kAdmissionShed;
            ++sheds_;
        }
        return true;
    };

    // Plain reads, writes and Flushes are not retired inline: their FTL
    // ops are submitted to the device's transaction scheduler as they
    // are fetched (in arbitration order) and the batch is drained at
    // the next boundary — a formula execution, a Flush, or the end of
    // the round.  Under FCFS this is tick-identical to inline execution
    // (the device clock does not advance while commands accumulate and
    // per-resource booking order equals submission order); under the
    // reordering policies it is what gives the arbiter a window of
    // co-pending host transactions to work with.
    std::vector<InFlight> batch;
    // Must run before anything that opens a new scheduler batch: the
    // batch's completions are discarded at the next submit.
    const auto drain = [&] {
        if (batch.empty())
            return;
        dev_->ssd().drainTransactions();
        for (const InFlight &f : batch)
            retire(f, dev_->ssd().groupCompletion(f.group, f.started),
                   {&f.cmd, 1});
        retired += batch.size();
        batch.clear();
    };

    // Rounds run until every SQ is empty: a requeued attempt goes back
    // into its SQ and is served by the next round.
    do {
        // Round-robin fetch: one command per queue per turn until all
        // SQs drain, preserving NVMe's per-queue FIFO order.
        std::vector<InFlight> fetched;
        for (bool any = true; any;) {
            any = false;
            for (std::uint16_t q = 0; q < queues(); ++q) {
                if (const auto c = qps_[q].fetch()) {
                    fetched.push_back(InFlight{.qid = q,
                                               .cid = c->cid,
                                               .cmd = c->cmd,
                                               .submittedAt = c->submittedAt});
                    any = true;
                }
            }
        }

        // Execute in arbitration order.  A formula's commands are
        // re-assembled per queue using its ticket; the whole group then
        // runs as one command.  A backed-off requeue carries a
        // submission time past the device clock: never execute (or
        // complete) a command earlier than it was submitted.
        std::vector<std::vector<nvme::NvmeCommand>> groups(queues());
        for (InFlight &f : fetched) {
            auto &ticketq = tickets_[f.qid];
            auto &group = groups[f.qid];
            if (!ticketq.empty() && (f.cmd.hasPartner() ||
                                     f.cmd.operandTag() || !group.empty())) {
                group.push_back(f.cmd);
                if (group.size() < ticketq.front().cmdCount)
                    continue;
                f.cls = OpClass::kFormula;
                f.cid = ticketq.front().finalCid;
                ticketq.pop_front();
                const std::vector<nvme::NvmeCommand> cmds =
                    std::exchange(group, {});
                const auto batches = parser_.parse(cmds);
                drain();
                f.started = std::max(dev_->now(), f.submittedAt);
                Tick done = f.started;
                if (!refuse(f)) {
                    ExecResult r;
                    attributed(f, [&] {
                        r = dev_->controller().executeBatches(batches, mode_,
                                                              f.started);
                    });
                    f.status = toNvmeStatus(r.status);
                    done = r.stats.end;
                    // The pages wait for the host's reap, which drops
                    // them unless the completion under this cid is OK.
                    if (!r.pages.empty())
                        results_[f.qid].push_back(
                            {.cid = f.cid, .pages = std::move(r.pages)});
                }
                retire(f, done, cmds);
                ++retired;
                continue;
            }

            f.cls = opClassOf(f.cmd.opcode());
            f.started = std::max(dev_->now(), f.submittedAt);
            if (f.cls == OpClass::kFlush) {
                // Flush = force a checkpoint: every write completed
                // before this command survives a subsequent power cut
                // without journal/OOB replay.  Retire the pending batch
                // first — the checkpoint orders after it — then drain
                // the Flush as its own empty batch, completing at the
                // device clock after the checkpoint.
                drain();
                if (!dev_->flush())
                    f.status = nvme::kInternalError;
                f.started = std::max(dev_->now(), f.started);
                attributed(f, [] {}); // books nothing: total and SQ wait
                batch.push_back(f);
                drain();
                continue;
            }
            const nvme::Lpn lpn = f.cmd.slba() / parser_.sectorsPerPage();
            // A read gates on page accessibility: a dead plane surfaces
            // as a media error, not silent data.
            if (!refuse(f) && f.cls == OpClass::kRead &&
                !dev_->ssd().ftl().pageAccessible(lpn))
                f.status = nvme::kUnrecoveredReadError;
            if (f.status == nvme::kSuccess) {
                std::vector<ssd::PhysOp> ops;
                if (f.cls == OpClass::kRead) {
                    dev_->ssd().ftl().readPage(lpn, ops);
                } else {
                    if (health)
                        health->noteAdmittedWrite();
                    if (!dev_->ssd().ftl().writePage(lpn, nullptr, ops))
                        f.status = nvme::kInternalError;
                }
                attributed(f, [&] {
                    f.group = dev_->ssd().submitOps(ops, f.started);
                });
            }
            batch.push_back(f);
        }
        drain();
    } while (std::any_of(qps_.begin(), qps_.end(),
                         [](const nvme::QueuePair &qp) {
                             return qp.sqOccupancy() > 0;
                         }));
    return retired;
}

bool
HostInterface::shutdownNotify()
{
    pump();
    return dev_->shutdownNotify();
}

} // namespace parabit::core
