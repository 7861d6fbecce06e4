#include "ssd/sched/policy.hpp"

#include "common/logging.hpp"

namespace parabit::ssd::sched {

const char *
policyName(SchedPolicyKind k)
{
    switch (k)
    {
    case SchedPolicyKind::kFcfs:
        return "fcfs";
    case SchedPolicyKind::kOutOfOrderDieFirst:
        return "ooo_die_first";
    case SchedPolicyKind::kReadPriority:
        return "read_priority";
    }
    panic("unknown SchedPolicyKind");
}

const char *
txClassName(TxClass c)
{
    switch (c)
    {
    case TxClass::kRead:
        return "read";
    case TxClass::kProgram:
        return "program";
    case TxClass::kErase:
        return "erase";
    case TxClass::kParaBit:
        return "parabit";
    case TxClass::kScrub:
        return "scrub";
    }
    panic("unknown TxClass");
}

const char *
phaseKindName(PhaseKind k)
{
    switch (k)
    {
    case PhaseKind::kXferIn:
        return "xfer_in";
    case PhaseKind::kArray:
        return "array";
    case PhaseKind::kXferOut:
        return "xfer_out";
    case PhaseKind::kSuspend:
        return "suspend";
    case PhaseKind::kResume:
        return "resume";
    }
    panic("unknown PhaseKind");
}

namespace {

/**
 * Work-conserving out-of-order: the oldest *ready* entry starts, so a
 * resource never idles behind a head-of-line entry that is still
 * waiting on another resource.  Order within a resource can change;
 * order between equally-ready entries cannot (lowest seq wins).
 */
class OooDieFirstPolicy final : public SchedulerPolicy
{
  public:
    std::size_t
    pick(const std::deque<QueueEntry> &queue, Tick) const override
    {
        std::size_t best = kNoPick;
        for (std::size_t i = 0; i < queue.size(); ++i)
        {
            if (!queue[i].ready)
            {
                continue;
            }
            if (best == kNoPick || queue[i].seq < queue[best].seq)
            {
                best = i;
            }
        }
        return best;
    }

    bool preempts(TxClass, TxClass) const override { return false; }
};

/**
 * Out-of-order plus read preference with program/erase suspend-resume.
 * Pick order on an idle resource:
 *
 *  1. a ready resume remainder whose parked deadline (forceAt, set at
 *     the first suspension) has passed — with the per-op suspend budget
 *     this is the bounded-extra-latency guarantee;
 *  2. the oldest ready host/FTL read;
 *  3. the oldest other ready non-scrub entry;
 *  4. the oldest ready background scrub scan.
 *
 * A scrub scan deferred longer than the configured anti-starvation
 * bound leaves bucket 4 and rejoins bucket 3, so host floods cannot
 * starve patrol coverage indefinitely.  An arriving ready read
 * additionally suspends a running program/erase/scrub array phase (the
 * scheduler enforces the budget and transition costs).
 */
class ReadPriorityPolicy final : public SchedulerPolicy
{
  public:
    explicit ReadPriorityPolicy(Tick scrub_max_deferred)
        : scrubMaxDeferred_(scrub_max_deferred)
    {
    }

    std::size_t
    pick(const std::deque<QueueEntry> &queue, Tick now) const override
    {
        std::size_t forced = kNoPick;
        std::size_t read = kNoPick;
        std::size_t any = kNoPick;
        std::size_t scrub = kNoPick;
        for (std::size_t i = 0; i < queue.size(); ++i)
        {
            const QueueEntry &v = queue[i];
            if (!v.ready)
            {
                continue;
            }
            if (v.isResume && now >= v.forceAt)
            {
                if (forced == kNoPick || v.seq < queue[forced].seq)
                {
                    forced = i;
                }
            }
            if (v.cls == TxClass::kRead)
            {
                if (read == kNoPick || v.seq < queue[read].seq)
                {
                    read = i;
                }
            }
            if (v.cls == TxClass::kScrub && !v.isResume &&
                now < v.earliest + scrubMaxDeferred_)
            {
                if (scrub == kNoPick || v.seq < queue[scrub].seq)
                {
                    scrub = i;
                }
                continue;
            }
            if (any == kNoPick || v.seq < queue[any].seq)
            {
                any = i;
            }
        }
        if (forced != kNoPick)
        {
            return forced;
        }
        if (read != kNoPick)
        {
            return read;
        }
        if (any != kNoPick)
        {
            return any;
        }
        return scrub;
    }

    bool
    preempts(TxClass incoming, TxClass running) const override
    {
        return incoming == TxClass::kRead &&
               (running == TxClass::kProgram || running == TxClass::kErase ||
                running == TxClass::kScrub);
    }

  private:
    Tick scrubMaxDeferred_;
};

} // namespace

std::unique_ptr<SchedulerPolicy>
makePolicy(const SchedConfig &cfg)
{
    switch (cfg.policy)
    {
    case SchedPolicyKind::kFcfs:
        return nullptr;
    case SchedPolicyKind::kOutOfOrderDieFirst:
        return std::make_unique<OooDieFirstPolicy>();
    case SchedPolicyKind::kReadPriority:
        return std::make_unique<ReadPriorityPolicy>(cfg.scrubMaxDeferredTicks);
    }
    panic("unknown SchedPolicyKind");
}

} // namespace parabit::ssd::sched
