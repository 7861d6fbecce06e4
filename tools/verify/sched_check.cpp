#include "sched_check.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "ssd/config.hpp"
#include "ssd/sched/scheduler.hpp"
#include "ssd/timeline.hpp"
#include "trace_check.hpp"

namespace parabit::verify {
namespace {

using ssd::Timeline;
using ssd::sched::DeviceTransaction;
using ssd::sched::PhaseKind;
using ssd::sched::SchedConfig;
using ssd::sched::SchedPolicyKind;
using ssd::sched::SchedStats;
using ssd::sched::StageTicks;
using ssd::sched::TransactionScheduler;
using ssd::sched::TxClass;
using ssd::sched::TxRecord;

void
addFinding(Report &r, const std::string &subject, const std::string &message,
           const std::string &expected, const std::string &actual)
{
    r.findings.push_back({"scheduler", subject, message, expected, actual});
}

/** Ordinal of @p a's plane, the scheduler's array-resource numbering. */
std::size_t
planeIndex(const flash::FlashGeometry &g, const flash::PhysPageAddr &a)
{
    return ((static_cast<std::size_t>(a.channel) * g.chipsPerChannel +
             a.chip) *
                g.diesPerChip +
            a.die) *
               g.planesPerDie +
           a.plane;
}

/**
 * The legacy greedy immediate-booking algorithm, generalised over the
 * canonical phase chain (which reproduces the class-specific seed
 * formulas exactly): book each phase the moment the previous one ends,
 * in submission order, on persistent per-channel/per-plane Timelines.
 */
class GreedyRef
{
  public:
    explicit GreedyRef(const flash::FlashGeometry &g)
        : geo_(g), chTls_(g.channels), plTls_(g.planesTotal())
    {
    }

    Tick
    schedule(const DeviceTransaction &tx)
    {
        Timeline &ch = chTls_.at(tx.addr.channel);
        Timeline &die = plTls_.at(planeIndex(geo_, tx.addr));
        Tick ready = tx.readyAt + tx.cmdTicks;
        if (tx.xferInTicks > 0)
            ready = ch.reserve(ready, tx.xferInTicks) + tx.xferInTicks;
        if (tx.arrayTicks > 0)
            ready = die.reserve(ready, tx.arrayTicks) + tx.arrayTicks;
        if (tx.xferOutTicks > 0)
            ready = ch.reserve(ready, tx.xferOutTicks) + tx.xferOutTicks;
        return ready;
    }

    Tick channelBooked(std::size_t c) const { return chTls_.at(c).bookedTicks(); }

    Tick planeBooked(std::size_t p) const { return plTls_.at(p).bookedTicks(); }

  private:
    flash::FlashGeometry geo_;
    std::vector<Timeline> chTls_;
    std::vector<Timeline> plTls_;
};

DeviceTransaction
randomTx(Rng &rng, const flash::FlashGeometry &g,
         const flash::FlashTiming &t, Tick base)
{
    DeviceTransaction tx;
    tx.addr.channel = static_cast<std::uint32_t>(rng.below(g.channels));
    tx.addr.chip = static_cast<std::uint32_t>(rng.below(g.chipsPerChannel));
    tx.addr.die = static_cast<std::uint32_t>(rng.below(g.diesPerChip));
    tx.addr.plane = static_cast<std::uint32_t>(rng.below(g.planesPerDie));
    tx.addr.msb = rng.chance(0.5);
    // Arrivals staggered across a program window so reads land while
    // program/erase array phases occupy their die.
    tx.readyAt = base + rng.below(t.tProgram);
    tx.cmdTicks = t.tCmdOverhead;
    const std::uint64_t k = rng.below(10);
    if (k < 5) {
        tx.cls = TxClass::kRead;
        tx.arrayTicks = tx.addr.msb ? t.msbReadTime() : t.lsbReadTime();
        tx.xferOutTicks = t.transferTime(g.pageBytes);
    } else if (k < 8) {
        tx.cls = TxClass::kProgram;
        tx.xferInTicks = t.transferTime(g.pageBytes);
        tx.arrayTicks = t.tProgram;
    } else if (k < 9) {
        tx.cls = TxClass::kErase;
        tx.arrayTicks = t.tErase;
    } else {
        tx.cls = TxClass::kParaBit;
        tx.arrayTicks = t.senseTime(1 + static_cast<int>(rng.below(7)));
        if (rng.chance(0.3))
            tx.xferInTicks = t.transferTime(g.pageBytes);
        if (rng.chance(0.5))
            tx.xferOutTicks = t.transferTime(g.pageBytes);
    }
    return tx;
}

/** Suspend-resume conserves array work, batch records are complete. */
void
checkConservation(const std::string &subject,
                  const std::vector<TxRecord> &records, Report &r)
{
    for (const TxRecord &rec : records) {
        ++r.schedChecksRun;
        if (rec.arrayExecuted != rec.arrayTicks)
            addFinding(r, subject,
                       "suspend-resume lost array work on tx " +
                           std::to_string(rec.id) + " (" +
                           std::to_string(rec.suspends) + " suspensions)",
                       std::to_string(rec.arrayTicks) + " array ticks",
                       std::to_string(rec.arrayExecuted) + " executed");
        if (rec.complete < rec.readyAt)
            addFinding(r, subject,
                       "tx " + std::to_string(rec.id) +
                           " completes before it is ready",
                       ">= " + std::to_string(rec.readyAt),
                       std::to_string(rec.complete));
    }
}

Tick
booked(const StageTicks &s, PhaseKind k)
{
    return s.phase[static_cast<std::size_t>(k)];
}

/**
 * One policy x geometry combination: several rounds of
 * a deterministic mixed batch, invariants checked after every drain.
 * @return the scheduler's final stats (for the sweep-level checks).
 */
SchedStats
checkCombo(const std::string &subject, const flash::FlashGeometry &geo,
           const SchedConfig &cfg, std::uint64_t seed, Report &r)
{
    const flash::FlashTiming timing;
    TransactionScheduler sch(geo, timing, cfg);
    // Every booked phase becomes a span here; parabit-trace's checker
    // then verifies per-resource exclusivity and per-transaction phase
    // order over the whole sweep.
    obs::TraceSink sink;
    sch.setTraceSink(&sink);
    const obs::TrackId host = sink.track("host", "verify");
    GreedyRef ref(geo);
    const bool fcfs = cfg.policy == SchedPolicyKind::kFcfs;

    Rng rng(seed);
    // Booked ticks per resource from the transactions' stage breakdowns,
    // accumulated across all batches: must equal the Timeline busy
    // counters at the end of the sweep.
    std::vector<Tick> channelStaged(geo.channels, 0);
    std::vector<Tick> planeStaged(geo.planesTotal(), 0);
    std::uint64_t nextToken = 0;

    Tick base = 0;
    for (int round = 0; round < 4; ++round) {
        std::vector<DeviceTransaction> txs;
        std::vector<std::uint64_t> ids;
        std::vector<Tick> want;
        const std::uint64_t firstToken = nextToken;
        const std::size_t n = 24 + rng.below(16);
        for (std::size_t i = 0; i < n; ++i) {
            const DeviceTransaction tx = randomTx(rng, geo, timing, base);
            // One attribution token per transaction keeps each stage
            // breakdown apart.
            sch.beginCommandAttribution(nextToken++);
            ids.push_back(sch.submit(tx));
            sch.endCommandAttribution();
            txs.push_back(tx);
            if (fcfs)
                want.push_back(ref.schedule(tx));
        }
        const Tick done = sch.drain();

        checkConservation(subject, sch.records(), r);
        for (std::size_t i = 0; i < txs.size(); ++i) {
            // The token is also the flow id the scheduler stepped on
            // every span it booked; the trace check wants it opened
            // and closed.
            const std::uint64_t token = firstToken + i;
            sink.flowStart(host, obs::kNvmeFlowCat, obs::kNvmeFlowName,
                           token, txs[i].readyAt);
            sink.flowEnd(host, obs::kNvmeFlowCat, obs::kNvmeFlowName,
                         token, sch.completionOf(ids[i]));
            const StageTicks st = sch.takeCommandStages(token);
            channelStaged[txs[i].addr.channel] +=
                booked(st, PhaseKind::kXferIn) +
                booked(st, PhaseKind::kXferOut);
            planeStaged[planeIndex(geo, txs[i].addr)] +=
                booked(st, PhaseKind::kArray) +
                booked(st, PhaseKind::kSuspend) +
                booked(st, PhaseKind::kResume);
        }

        if (fcfs) {
            for (std::size_t i = 0; i < ids.size(); ++i) {
                ++r.schedChecksRun;
                if (sch.completionOf(ids[i]) != want[i])
                    addFinding(r, subject,
                               "fcfs diverges from greedy immediate "
                               "booking on tx " +
                                   std::to_string(ids[i]) + " (round " +
                                   std::to_string(round) + ")",
                               std::to_string(want[i]),
                               std::to_string(sch.completionOf(ids[i])));
            }
        }
        base = done / 2; // drift: later batches contend with earlier ones
    }

    const tracecheck::CheckResult traced =
        tracecheck::checkTrace(sink.toJson());
    r.schedChecksRun += static_cast<int>(traced.stats.spans);
    for (const tracecheck::Finding &f : traced.findings)
        addFinding(r, subject, "booking trace: " + f.message,
                   "no " + f.check + " finding", f.check);

    const SchedStats stats = sch.stats();
    ++r.schedChecksRun;
    if (stats.submitted != stats.completed)
        addFinding(r, subject, "transactions lost by the scheduler",
                   std::to_string(stats.submitted) + " submitted",
                   std::to_string(stats.completed) + " completed");

    // Busy accounting: every booked tick belongs to exactly one phase of
    // one transaction, per resource.
    for (std::uint32_t c = 0; c < geo.channels; ++c) {
        ++r.schedChecksRun;
        if (stats.channelBusy.at(c) != channelStaged[c])
            addFinding(r, subject,
                       "channel " + std::to_string(c) +
                           " busy ticks diverge from the booked stages",
                       std::to_string(channelStaged[c]),
                       std::to_string(stats.channelBusy.at(c)));
    }
    for (std::uint32_t p = 0; p < geo.planesTotal(); ++p) {
        ++r.schedChecksRun;
        if (stats.dieBusy.at(p) != planeStaged[p])
            addFinding(r, subject,
                       "die resource " + std::to_string(p) +
                           " busy ticks diverge from the booked stages",
                       std::to_string(planeStaged[p]),
                       std::to_string(stats.dieBusy.at(p)));
    }

    if (fcfs) {
        for (std::uint32_t c = 0; c < geo.channels; ++c) {
            ++r.schedChecksRun;
            if (stats.channelBusy.at(c) != ref.channelBooked(c))
                addFinding(r, subject,
                           "fcfs channel " + std::to_string(c) +
                               " busy time diverges from greedy booking",
                           std::to_string(ref.channelBooked(c)),
                           std::to_string(stats.channelBusy.at(c)));
        }
        for (std::uint32_t p = 0; p < geo.planesTotal(); ++p) {
            ++r.schedChecksRun;
            if (stats.dieBusy.at(p) != ref.planeBooked(p))
                addFinding(r, subject,
                           "fcfs die resource " + std::to_string(p) +
                               " busy time diverges from greedy booking",
                           std::to_string(ref.planeBooked(p)),
                           std::to_string(stats.dieBusy.at(p)));
        }
    }
    return stats;
}

} // namespace

void
checkScheduler(Report &r)
{
    struct Geo
    {
        const char *name;
        flash::FlashGeometry geometry;
    };
    Geo tiny{"tiny", ssd::SsdConfig::tiny().geometry};
    // Lopsided: one channel feeding many planes, so die contention and
    // channel contention diverge sharply.
    Geo skewed{"skewed", ssd::SsdConfig::tiny().geometry};
    skewed.geometry.channels = 1;
    skewed.geometry.chipsPerChannel = 4;
    skewed.geometry.diesPerChip = 2;
    skewed.geometry.planesPerDie = 4;

    std::uint64_t readPrioritySuspends = 0;
    std::uint64_t seed = 0x5CED0001;
    for (const Geo &g : {tiny, skewed}) {
        for (int p = 0; p < ssd::sched::kNumSchedPolicies; ++p) {
            SchedConfig cfg;
            cfg.policy = static_cast<SchedPolicyKind>(p);
            const std::string subject =
                std::string(ssd::sched::policyName(cfg.policy)) + "/" +
                g.name;
            const SchedStats stats =
                checkCombo(subject, g.geometry, cfg, seed++, r);
            if (cfg.policy == SchedPolicyKind::kReadPriority)
                readPrioritySuspends += stats.suspends;
        }
    }

    // The conservation invariant is vacuous if the sweep never actually
    // suspended anything: treat that as a model regression too.
    ++r.schedChecksRun;
    if (readPrioritySuspends == 0)
        addFinding(r, "read_priority sweep",
                   "the deterministic trace exercised no suspend-resume; "
                   "conservation was not actually tested",
                   "> 0 suspensions", "0");
}

} // namespace parabit::verify
