/**
 * @file
 * nvme_mix: a payload-carrying small-page device behind two NVMe queue
 * pairs (HostInterface, ReAlloc formulas), with SPOR recovery on so
 * that Flush takes a checkpoint and every mapping change is journaled.
 * Set-up preconditions the device with the payload pages the loop
 * reads, the hot range it overwrites and the formula operands.
 *
 * Each round queues, per queue pair, kReads reads of seeded LPNs and
 * kWrites overwrites of a separate hot range, plus one seeded formula
 * (a binary op over two 4-page operand ranges) and, every kFlushEvery
 * rounds, a Flush; then the host pumps the device and reaps every
 * completion before it sends the next round (closed loop).  Formula
 * results are checked against the host oracle; reads, writes and
 * flushes are checked for an OK status (the host interface returns no
 * read payload).
 *
 * Sizing against the scratch-LPN leak: every ReAlloc formula page pair
 * claims two fresh LPNs counting down from the top of the logical
 * space and none are ever released, so a pass of kRounds rounds claims
 * 2 * kFormulaPages * kRounds LPNs.  The geometry below keeps that run
 * well above the workload's own LPNs for the whole pass (the remaining
 * distance is reported as parabit.controller.scratch_headroom); past
 * it, formulas would overwrite operands and return wrong data with an
 * OK status.
 */

#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "parabit/host_interface.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parabit;
using core::HostInterface;
using core::Mode;
using core::OpClass;
using flash::BitwiseOp;

namespace {

constexpr std::uint16_t kQueues = 2;
constexpr std::uint16_t kDepth = 64;
constexpr int kRounds = 2000;
constexpr int kReads = 12;
constexpr int kWrites = 4;
constexpr int kFlushEvery = 8;
constexpr std::uint32_t kFormulaPages = 4;
constexpr int kOperands = 8;

constexpr nvme::Lpn kReadBase = 0, kReadPages = 4096;
constexpr nvme::Lpn kWriteBase = 4096, kWritePages = 512;
constexpr nvme::Lpn kOperandBase = 4608;
constexpr nvme::Lpn kHostTop = kOperandBase + kOperands * kFormulaPages - 1;

ssd::SsdConfig
mixConfig()
{
    ssd::SsdConfig c = ssd::SsdConfig::tiny();
    c.geometry.blocksPerPlane = 64;
    c.geometry.wordlinesPerBlock = 32;
    c.geometry.pageBytes = 2048;
    c.recovery.reservedBlocksPerPlane = 4;
    c.recovery.enabled = true;
    return c;
}

/** What the host remembers about one in-flight command. */
struct Pending
{
    OpClass cls = OpClass::kRead;
    Tick submittedAt = 0;
};

} // namespace

PassOut
runNvmeMix(std::uint64_t seed, bool traced)
{
    TraceWindow tw(traced);
    PassOut out;
    Rng rng(seed ^ 0x4E564D45ull);

    const Clock::time_point t_setup = Clock::now();
    const ssd::SsdConfig cfg = mixConfig();
    core::ParaBitDevice dev(cfg);
    const std::size_t bits = cfg.geometry.pageBits();
    const double page_bytes = cfg.geometry.pageBytes;

    double own_s = 0;
    const Clock::time_point t_gen = Clock::now();
    const std::vector<BitVector> read_data = randomPages(kReadPages, bits, rng);
    const std::vector<BitVector> write_data =
        randomPages(kWritePages, bits, rng);
    std::vector<std::vector<BitVector>> operands;
    for (int i = 0; i < kOperands; ++i)
        operands.push_back(randomPages(kFormulaPages, bits, rng));
    own_s += secondsSince(t_gen);

    double place_s = 0;
    {
        const Clock::time_point t0 = Clock::now();
        dev.writeData(kReadBase, read_data);
        dev.writeData(kWriteBase, write_data);
        for (int i = 0; i < kOperands; ++i)
            dev.writeData(kOperandBase + i * kFormulaPages, operands[i]);
        place_s = secondsSince(t0);
    }
    const Tick place_ticks = dev.now();
    HostInterface host(dev, kQueues, kDepth, Mode::kReAllocate);
    out.setupS = secondsSince(t_setup) - own_s; // input generation excluded

    std::map<std::pair<std::uint16_t, std::uint16_t>, Pending> inflight;
    std::array<std::vector<double>, core::kNumOpClasses> class_ms;
    double submit_s = 0, pump_s = 0, reap_s = 0;
    const Tick first_submit = dev.now();
    Tick last_done = first_submit;

    /** One command of a round, drawn before the timed submission. */
    struct Cmd
    {
        std::uint16_t q;
        OpClass cls;
        nvme::Lpn lpn;
        std::optional<std::uint16_t> cid;
    };
    std::vector<Cmd> cmds;
    std::vector<core::QueuedCompletion> done;

    const BusySnapshot b0 = BusySnapshot::take(dev);
    for (int r = 0; r < kRounds; ++r) {
        cmds.clear();
        for (std::uint16_t q = 0; q < kQueues; ++q) {
            for (int i = 0; i < kReads; ++i)
                cmds.push_back(
                    {q, OpClass::kRead, kReadBase + rng.below(kReadPages), {}});
            for (int i = 0; i < kWrites; ++i)
                cmds.push_back({q, OpClass::kWrite,
                                kWriteBase + rng.below(kWritePages), {}});
        }
        const int fx = static_cast<int>(rng.below(kOperands));
        const int fy = (fx + 1 + static_cast<int>(rng.below(kOperands - 1))) %
                       kOperands;
        const BitwiseOp op = kBinaryOps[rng.below(kBinaryOps.size())];
        nvme::Formula f;
        f.terms.push_back(nvme::Formula::Term{
            nvme::OperandRef::logical(kOperandBase + fx * kFormulaPages,
                                      kFormulaPages),
            nvme::OperandRef::logical(kOperandBase + fy * kFormulaPages,
                                      kFormulaPages),
            op});
        cmds.push_back({static_cast<std::uint16_t>(r % kQueues),
                        OpClass::kFormula, 0, {}});
        if (r % kFlushEvery == kFlushEvery - 1)
            cmds.push_back({1, OpClass::kFlush, 0, {}});

        const Tick submitted_at = dev.now();
        Clock::time_point t0 = Clock::now();
        for (Cmd &c : cmds) {
            switch (c.cls) {
              case OpClass::kRead: c.cid = host.submitRead(c.q, c.lpn); break;
              case OpClass::kWrite: c.cid = host.submitWrite(c.q, c.lpn); break;
              case OpClass::kFormula: c.cid = host.submitFormula(c.q, f); break;
              case OpClass::kFlush: c.cid = host.submitFlush(c.q); break;
            }
        }
        submit_s += secondsSince(t0);
        for (const Cmd &c : cmds) {
            if (c.cid)
                inflight[{c.q, *c.cid}] = Pending{c.cls, submitted_at};
            else // a full ring is a sizing bug here: a failed attempt
                out.tally.note(false, {}, 0);
        }

        t0 = Clock::now();
        host.pump();
        pump_s += secondsSince(t0);

        done.clear();
        t0 = Clock::now();
        for (std::uint16_t q = 0; q < kQueues; ++q)
            while (std::optional<core::QueuedCompletion> c = host.reap(q))
                done.push_back(std::move(*c));
        reap_s += secondsSince(t0);

        for (const core::QueuedCompletion &c : done) {
            const auto it = inflight.find({c.qid, c.cid});
            if (it == inflight.end()) {
                out.tally.note(false, {}, 0); // completion nobody sent
                continue;
            }
            const Pending p = it->second;
            inflight.erase(it);
            const double ms = ticks::toMs(c.latency);
            out.simLatencyMs.push_back(ms);
            class_ms[static_cast<std::size_t>(p.cls)].push_back(ms);
            last_done = std::max(last_done, p.submittedAt + c.latency);
            ++out.ops;
            PageVerdict v;
            std::size_t checked = 0;
            if (p.cls == OpClass::kFormula) {
                out.hostBytes += 2.0 * kFormulaPages * page_bytes;
                if (c.ok()) {
                    const Clock::time_point t_own = Clock::now();
                    std::vector<BitVector> want;
                    for (std::uint32_t i = 0; i < kFormulaPages; ++i)
                        want.push_back(hostBitwise(op, operands[fx][i],
                                                   operands[fy][i]));
                    v = checkPages(c.pages, want);
                    checked = kFormulaPages;
                    own_s += secondsSince(t_own);
                }
            } else if (p.cls != OpClass::kFlush) {
                out.hostBytes += page_bytes;
            }
            out.tally.note(c.ok(), v, checked);
        }
    }
    out.loopS = submit_s + pump_s + reap_s;
    // Every command must have completed: the loop is closed per round.
    for (std::size_t i = 0; i < inflight.size(); ++i)
        out.tally.note(false, {}, 0);
    BusySnapshot b1 = BusySnapshot::take(dev);
    b1.at = std::max(b1.at, last_done);
    out.simMakespanS = ticks::toMs(last_done - first_submit) / 1e3;

    out.layer["bench.own_s"] = own_s;
    out.layer["parabit.device.place_s"] = place_s;
    out.layer["parabit.device.bitwise_s"] = 0;
    out.layer["parabit.device.place_sim_ms"] = ticks::toMs(place_ticks);
    out.layer["parabit.host_interface.submit_s"] = submit_s;
    out.layer["parabit.host_interface.pump_s"] = pump_s;
    out.layer["parabit.host_interface.reap_s"] = reap_s;
    for (int c = 0; c < core::kNumOpClasses; ++c) {
        const std::string key =
            std::string("parabit.host_interface.") +
            core::opClassName(static_cast<OpClass>(c)) + "_ms_p50";
        const double v = median(class_ms[static_cast<std::size_t>(c)]);
        out.layer[key] = v;
        out.sim[key] = v;
    }
    const auto stage = [&](const char *name) {
        std::vector<const Histogram *> hs;
        for (const char *cls : {"read", "write", "formula"})
            if (const Histogram *h = tw.histogram(
                    std::string("obs.latency.") + cls + "." + name))
                hs.push_back(h);
        return histogramMedian(hs) / 1e3; // us -> ms
    };
    out.layer["parabit.host_interface.sq_wait_ms_p50"] = stage("sq_wait");
    out.layer["ssd.sched.queue_wait_ms_p50"] = stage("queue");
    if (traced && out.layer["ssd.sched.queue_wait_ms_p50"] >= 10.0)
        out.notes.push_back("ssd.sched.queue_wait_ms_p50 sits at the 10 ms "
                            "top edge of the obs.latency histograms: the "
                            "true median is at least that");
    out.layer["flash.array_ms_p50"] = stage("array");
    out.layer["parabit.host_interface.timeouts"] =
        static_cast<double>(host.timeouts());
    out.layer["parabit.host_interface.requeues"] =
        static_cast<double>(host.requeues());
    out.layer["parabit.host_interface.sheds"] =
        static_cast<double>(host.sheds());
    out.sim["host.timeouts+requeues+sheds"] = static_cast<double>(
        host.timeouts() + host.requeues() + host.sheds());

    addProfileLayers(tw, out);
    addDeviceLayers(dev, tw, b0, b1, kHostTop, out);

    char line[200];
    std::snprintf(line, sizeof line,
                  "%d rounds x (2 queues x (%d reads + %d writes) + 1 formula "
                  "of 2 x %u pages + a flush every %d); %u-byte pages",
                  kRounds, kReads, kWrites, kFormulaPages, kFlushEvery,
                  static_cast<unsigned>(cfg.geometry.pageBytes));
    out.notes.push_back(line);
    return out;
}

} // namespace perfbench
