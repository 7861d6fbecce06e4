/**
 * @file
 * Queued-execution study: end-to-end command latencies through the NVMe
 * queue path (paper Fig 9/10 lifecycle) under mixed I/O and
 * computation, and the interference ParaBit operations impose on
 * co-running reads.
 *
 * The paper evaluates isolated operations; a deployable device also
 * needs acceptable behaviour when computation shares queues with
 * ordinary traffic.  This bench quantifies that with the full
 * controller/FTL/timing stack on a small functional device, then
 * compares the pluggable scheduler policies head-to-head on the same
 * synthetic transaction stream (co-running reads under a ParaBit
 * reallocation mix) and reports per-class p50/p99 latency plus
 * per-die/per-channel utilization for each policy.
 *
 *   bench_queueing [--json FILE]   # also write the comparison as JSON
 *
 * Observability: --metrics-out/--trace-out/--snapshots-out (see
 * bench/common/obs_args.hpp).  The trace and snapshots cover the FCFS
 * pass of the policy comparison — one scheduler, one logical clock, so
 * the per-channel/per-die tracks stay exclusive.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common/obs_args.hpp"
#include "bench/common/report.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/sched/scheduler.hpp"

namespace {

using namespace parabit;
using core::HostInterface;
using core::Mode;
using core::ParaBitDevice;

std::vector<BitVector>
pages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (int p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

/** One policy's outcome on the shared synthetic stream. */
struct PolicyOutcome
{
    std::string name;
    double readP50Us = 0;
    double readP99Us = 0;
    double readMeanUs = 0;
    double parabitP99Us = 0;
    std::uint64_t suspends = 0;
    std::size_t maxQueueDepth = 0;
    double avgChannelUtil = 0;
    double avgDieUtil = 0;
    std::vector<double> channelUtil;
    std::vector<double> dieUtil;
};

/**
 * ParaBit reallocation mix: reads co-run with the traffic a formula
 * round generates — multi-SRO array ops, result/reallocation programs
 * and the occasional erase.  Arrivals are staggered across a program
 * window so reads land while long array phases occupy their die.
 */
ssd::sched::DeviceTransaction
mixTx(Rng &rng, const flash::FlashGeometry &g, const flash::FlashTiming &t,
      Tick base)
{
    using ssd::sched::TxClass;
    ssd::sched::DeviceTransaction tx;
    tx.addr.channel = static_cast<std::uint32_t>(rng.below(g.channels));
    tx.addr.chip = static_cast<std::uint32_t>(rng.below(g.chipsPerChannel));
    tx.addr.die = static_cast<std::uint32_t>(rng.below(g.diesPerChip));
    tx.addr.plane = static_cast<std::uint32_t>(rng.below(g.planesPerDie));
    tx.addr.msb = rng.chance(0.5);
    tx.readyAt = base + rng.below(t.tProgram);
    tx.cmdTicks = t.tCmdOverhead;
    const std::uint64_t k = rng.below(10);
    if (k < 4) {
        tx.cls = TxClass::kRead;
        tx.arrayTicks = tx.addr.msb ? t.msbReadTime() : t.lsbReadTime();
        tx.xferOutTicks = t.transferTime(g.pageBytes);
    } else if (k < 8) {
        tx.cls = TxClass::kProgram;
        tx.xferInTicks = t.transferTime(g.pageBytes);
        tx.arrayTicks = t.tProgram;
    } else if (k < 9) {
        tx.cls = TxClass::kParaBit;
        tx.arrayTicks = t.senseTime(1 + static_cast<int>(rng.below(7)));
        if (rng.chance(0.5))
            tx.xferOutTicks = t.transferTime(g.pageBytes);
    } else {
        tx.cls = TxClass::kErase;
        tx.arrayTicks = t.tErase;
    }
    return tx;
}

/** Nearest-rank percentile: the ceil(p/100 * n)-th smallest of @p v,
 *  rank clamped to [1, n]; 0 when empty. */
Tick
nearestRank(std::vector<Tick> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Mean of @p v, truncated to a tick; 0 when empty. */
Tick
meanTicks(const std::vector<Tick> &v)
{
    if (v.empty())
        return 0;
    Tick sum = 0;
    for (const Tick t : v)
        sum += t;
    return static_cast<Tick>(static_cast<double>(sum) /
                             static_cast<double>(v.size()));
}

PolicyOutcome
runPolicy(ssd::sched::SchedPolicyKind policy, bench::ObsOptions *obs)
{
    using ssd::sched::TxClass;
    const flash::FlashGeometry geo = ssd::SsdConfig::tiny().geometry;
    const flash::FlashTiming timing;
    ssd::sched::SchedConfig cfg;
    cfg.policy = policy;
    ssd::sched::TransactionScheduler sch(geo, timing, cfg);
    if (obs && obs->traceWanted())
        sch.setTraceSink(&obs::TraceSink::enableGlobal());

    // Same seed for every policy: identical streams, only the
    // arbitration differs.
    Rng rng(0xBE7C0DE5);
    Tick base = 0;
    Tick horizon = 0;
    // Completion latency (complete - readyAt) of every read and every
    // ParaBit transaction, over all rounds.
    std::vector<Tick> readLat;
    std::vector<Tick> parabitLat;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 48; ++i)
            sch.submit(mixTx(rng, geo, timing, base));
        horizon = std::max(horizon, sch.drain());
        for (const ssd::sched::TxRecord &rec : sch.records()) {
            if (rec.cls == TxClass::kRead)
                readLat.push_back(rec.complete - rec.readyAt);
            else if (rec.cls == TxClass::kParaBit)
                parabitLat.push_back(rec.complete - rec.readyAt);
        }
        base = horizon / 2;
        if (obs && obs->snapshotsWanted())
            obs->snapshots.record(horizon);
    }

    PolicyOutcome out;
    out.name = sch.policyName();
    out.readP50Us = ticks::toUs(nearestRank(readLat, 50));
    out.readP99Us = ticks::toUs(nearestRank(readLat, 99));
    out.readMeanUs = ticks::toUs(meanTicks(readLat));
    out.parabitP99Us = ticks::toUs(nearestRank(parabitLat, 99));

    const ssd::sched::SchedStats stats = sch.stats();
    out.suspends = stats.suspends;
    out.maxQueueDepth = stats.maxQueueDepth;
    for (const Tick busy : stats.channelBusy) {
        out.channelUtil.push_back(horizon
                                      ? static_cast<double>(busy) / horizon
                                      : 0.0);
        out.avgChannelUtil += out.channelUtil.back();
    }
    out.avgChannelUtil /= static_cast<double>(stats.channelBusy.size());
    for (const Tick busy : stats.dieBusy) {
        out.dieUtil.push_back(horizon ? static_cast<double>(busy) / horizon
                                      : 0.0);
        out.avgDieUtil += out.dieUtil.back();
    }
    out.avgDieUtil /= static_cast<double>(stats.dieBusy.size());
    return out;
}

void
writeJson(const std::string &path, const std::vector<PolicyOutcome> &outs)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "bench_queueing: cannot write " << path << "\n";
        return;
    }
    auto vec = [&os](const std::vector<double> &v) {
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? ", " : "") << v[i];
        os << "]";
    };
    os << "{\n  \"tool\": \"bench_queueing\",\n  \"policies\": [";
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const PolicyOutcome &o = outs[i];
        os << (i ? "," : "") << "\n    {\n"
           << "      \"policy\": \"" << o.name << "\",\n"
           << "      \"read_p50_us\": " << o.readP50Us << ",\n"
           << "      \"read_p99_us\": " << o.readP99Us << ",\n"
           << "      \"read_mean_us\": " << o.readMeanUs << ",\n"
           << "      \"parabit_p99_us\": " << o.parabitP99Us << ",\n"
           << "      \"suspends\": " << o.suspends << ",\n"
           << "      \"max_queue_depth\": " << o.maxQueueDepth << ",\n"
           << "      \"avg_channel_util\": " << o.avgChannelUtil << ",\n"
           << "      \"avg_die_util\": " << o.avgDieUtil << ",\n"
           << "      \"channel_util\": ";
        vec(o.channelUtil);
        os << ",\n      \"die_util\": ";
        vec(o.dieUtil);
        os << "\n    }";
    }
    os << "\n  ],\n  \"read_p99_ratio_vs_fcfs\": {";
    for (std::size_t i = 1; i < outs.size(); ++i) {
        os << (i > 1 ? ", " : "") << "\"" << outs[i].name << "\": "
           << (outs[0].readP99Us > 0 ? outs[i].readP99Us / outs[0].readP99Us
                                     : 0.0);
    }
    os << "}\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bench::ObsOptions obs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (obs.consume(argc, argv, i)) {
            continue;
        } else {
            std::cerr << "usage: " << argv[0] << " [--json FILE]\n"
                      << bench::ObsOptions::help() << "\n";
            return 2;
        }
    }
    // Before any scheduler exists: instruments bind at construction.
    obs.enableMetrics();

    bench::banner("Queued execution: mixed I/O + in-flash computation");

    // Baseline: pure-read latency distribution.
    {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        const auto d = pages(dev.ssd().config(), 1, 1);
        for (nvme::Lpn l = 0; l < 32; ++l)
            dev.writeData(l, d);
        HostInterface host(dev, 1, 64);
        ScalarStat lat;
        for (int round = 0; round < 16; ++round) {
            for (nvme::Lpn l = 0; l < 16; ++l)
                host.submitRead(0, l);
            host.pump();
            while (auto c = host.reap(0))
                lat.sample(ticks::toUs(c->latency));
        }
        bench::section("pure reads, QD16");
        bench::tableHeader("metric", "us");
        bench::row("mean read latency", -1, lat.mean());
        bench::row("max read latency", -1, lat.max());
    }

    // Mixed: reads sharing the queue with ParaBit formulas.
    for (Mode mode : {Mode::kPreAllocated, Mode::kReAllocate}) {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        const auto d = pages(dev.ssd().config(), 1, 2);
        for (nvme::Lpn l = 0; l < 32; ++l)
            dev.writeData(l, d);
        const auto x = pages(dev.ssd().config(), 4, 3);
        const auto y = pages(dev.ssd().config(), 4, 4);
        if (mode == Mode::kPreAllocated)
            dev.writeOperandPair(200, 300, x, y);
        else {
            dev.writeData(200, x);
            dev.writeData(300, y);
        }

        HostInterface host(dev, 1, 64, mode);
        ScalarStat read_lat, op_lat;
        for (int round = 0; round < 16; ++round) {
            for (nvme::Lpn l = 0; l < 8; ++l)
                host.submitRead(0, l);
            nvme::Formula f;
            f.terms.push_back(nvme::Formula::Term{
                nvme::OperandRef::logical(200, 4),
                nvme::OperandRef::logical(300, 4),
                flash::BitwiseOp::kXor});
            const auto formula_cid = host.submitFormula(0, f);
            for (nvme::Lpn l = 8; l < 16; ++l)
                host.submitRead(0, l);
            host.pump();
            while (auto c = host.reap(0)) {
                if (formula_cid && c->cid == *formula_cid)
                    op_lat.sample(ticks::toUs(c->latency));
                else
                    read_lat.sample(ticks::toUs(c->latency));
            }
        }
        bench::section(std::string("mixed reads + XOR formulas, ") +
                       core::modeName(mode));
        bench::tableHeader("metric", "us");
        bench::row("mean read latency", -1, read_lat.mean());
        bench::row("max read latency", -1, read_lat.max());
        bench::row("mean formula latency", -1, op_lat.mean());
    }

    bench::note("pre-allocated formulas are sensing-only and barely "
                "perturb reads; reallocation adds program traffic that "
                "queued reads must wait behind");

    // Scheduler policy comparison on one shared synthetic stream.
    std::vector<PolicyOutcome> outs;
    for (int p = 0; p < ssd::sched::kNumSchedPolicies; ++p)
        outs.push_back(
            runPolicy(static_cast<ssd::sched::SchedPolicyKind>(p),
                      p == 0 ? &obs : nullptr));

    bench::section("scheduler policies: co-running reads under "
                   "ParaBit reallocation interference");
    bench::tableHeader("policy / metric", "us");
    for (const PolicyOutcome &o : outs) {
        bench::rowOnly(o.name + " read p50", o.readP50Us);
        bench::rowOnly(o.name + " read p99", o.readP99Us);
        bench::rowOnly(o.name + " read mean", o.readMeanUs);
        bench::rowOnly(o.name + " parabit p99", o.parabitP99Us);
        bench::rowOnly(o.name + " suspends",
                       static_cast<double>(o.suspends));
        bench::rowOnly(o.name + " avg channel util", o.avgChannelUtil);
        bench::rowOnly(o.name + " avg die util", o.avgDieUtil);
    }
    const PolicyOutcome &fcfs = outs.front();
    const PolicyOutcome &rp = outs.back();
    if (fcfs.readP99Us > 0)
        bench::note("read_priority p99 read latency is " +
                    std::to_string(fcfs.readP99Us / rp.readP99Us) +
                    "x lower than fcfs on the same stream (" +
                    std::to_string(rp.readP99Us) + " vs " +
                    std::to_string(fcfs.readP99Us) + " us)");

    if (!json_path.empty())
        writeJson(json_path, outs);
    return obs.finish() ? 0 : 2;
}
