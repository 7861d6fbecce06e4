#include <numeric>

#include "workloads.hpp"

namespace perfbench {

using namespace parabit;

std::vector<BitVector>
randomPages(std::size_t n, std::size_t bits, Rng &rng)
{
    std::vector<BitVector> out;
    out.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
        BitVector v(bits);
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

BusySnapshot
BusySnapshot::take(core::ParaBitDevice &dev)
{
    const ssd::sched::SchedStats s = dev.ssd().scheduler().stats();
    BusySnapshot b;
    b.channelTicks = static_cast<double>(
        std::accumulate(s.channelBusy.begin(), s.channelBusy.end(), Tick{0}));
    b.planeTicks = static_cast<double>(
        std::accumulate(s.dieBusy.begin(), s.dieBusy.end(), Tick{0}));
    b.at = dev.now();
    return b;
}

namespace {

/**
 * The controller's scratch-LPN cursor, read from outside: it starts at
 * logicalPages() - 1 and every reallocated copy claims the next LPN
 * below, so the claimed LPNs form a mapped run from the top.  The
 * headroom is how far that run still is from the workload's own data.
 */
double
scratchHeadroom(ssd::Ftl &ftl, nvme::Lpn host_top)
{
    nvme::Lpn cursor = ftl.logicalPages() - 1;
    while (cursor > host_top && ftl.lookup(cursor))
        --cursor;
    return static_cast<double>(cursor) - static_cast<double>(host_top);
}

} // namespace

void
addDeviceLayers(core::ParaBitDevice &dev, const TraceWindow &tw,
                const BusySnapshot &from, const BusySnapshot &to,
                nvme::Lpn host_top, PassOut &out)
{
    ssd::Ftl &ftl = dev.ssd().ftl();
    const auto both = [&](const char *name, double v) {
        out.sim[name] = v;
        out.layer[name] = v;
    };
    both("ssd.ftl.host_pages", static_cast<double>(ftl.hostPagesWritten()));
    both("ssd.ftl.gc_pages", static_cast<double>(ftl.gcPagesWritten()));
    both("ssd.ftl.parabit_pages",
         static_cast<double>(ftl.parabitPagesWritten()));
    both("ssd.ftl.erases", static_cast<double>(ftl.blockErases()));
    both("ssd.ftl.gc_runs", static_cast<double>(ftl.gcRuns()));
    both("ssd.ftl.journal_records",
         static_cast<double>(ftl.journalRecordsWritten()));
    both("ssd.ftl.checkpoints", static_cast<double>(ftl.checkpointsTaken()));
    both("ssd.ftl.program_failures",
         static_cast<double>(ftl.programFailures()));
    both("ssd.ftl.write_amp", ftl.writeAmplification());

    const ssd::sched::SchedStats s = dev.ssd().scheduler().stats();
    const double tx = static_cast<double>(s.submitted);
    both("ssd.sched.tx", tx);
    both("ssd.sched.max_queue_depth", static_cast<double>(s.maxQueueDepth));
    out.layer["ssd.sched.ns_per_tx"] =
        tx > 0 ? 1e9 * out.layer["ssd.sched.self_s"] / tx : 0.0;
    const double span = static_cast<double>(to.at - from.at);
    const auto share = [&](double busy, std::size_t n) {
        return span > 0 && n > 0 ? busy / (span * static_cast<double>(n))
                                 : 0.0;
    };
    both("ssd.sched.channel_busy_share",
         share(to.channelTicks - from.channelTicks, s.channelBusy.size()));
    both("ssd.sched.plane_busy_share",
         share(to.planeTicks - from.planeTicks, s.dieBusy.size()));

    out.layer["parabit.controller.formulas"] =
        static_cast<double>(tw.counter("parabit.formulas"));
    const double senses = static_cast<double>(tw.counter("parabit.sense_ops"));
    out.layer["parabit.controller.sense_ops"] = senses;
    out.layer["parabit.controller.realloc_programs"] =
        static_cast<double>(tw.counter("parabit.realloc.programs"));
    out.layer["parabit.controller.realloc_bytes_per_operand_byte"] =
        out.hostBytes > 0
            ? static_cast<double>(tw.counter("parabit.realloc.bytes")) /
                  out.hostBytes
            : 0.0;
    out.layer["parabit.controller.host_fallbacks"] =
        static_cast<double>(tw.counter("parabit.ladder.host_fallbacks"));
    out.layer["flash.ns_per_sense"] =
        senses > 0 ? 1e9 * out.layer["flash.self_s"] / senses : 0.0;
    both("parabit.controller.scratch_headroom",
         scratchHeadroom(ftl, host_top));
}

} // namespace perfbench
