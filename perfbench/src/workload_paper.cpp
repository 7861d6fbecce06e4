/**
 * @file
 * The two paper-geometry workloads (SsdConfig::paperSsd(), 1024 planes,
 * 8 KiB pages; one stripe = one page per plane = 8 MiB per operand).
 *
 * paper_bulk is timing-only.  It places two operands of kBulkStripes
 * stripes per mode with the placement call that mode uses, so each
 * placement is one scheduler batch of thousands of transactions, then
 * runs every binary op over them.  paper_grid stores payloads and runs
 * every binary op once per mode on one-stripe operands, checking each
 * result page against a host-side oracle; after the timed loop it runs
 * the same grid in flash (no result transfer) at exactly one stripe,
 * the condition of the paper's Fig 13 and of CostModel, for the
 * accuracy table.
 *
 * Timed ops return their result to the host (transfer_results), as a
 * caller of ParaBitDevice::bitwise gets by default.  Pre-allocated and
 * location-free operands are a seed-drawn 1..kJitterPages pages longer
 * than whole stripes, so their simulated latency (transfer-bound, hence
 * linear in the size) differs slightly between seeds and not at all
 * between runs of one seed.  The simulator's ReAlloc latency depends on
 * the placement history (which planes the copies land on, what ran
 * before; see CHANGES.md), so ReAlloc operands stay whole stripes, are
 * placed and run first, and a filler realigns the FTL's plane cursor
 * after the jittered placements; that keeps the seed from deciding the
 * ReAlloc numbers.  ReAlloc ops are also kept to fewer than ten per
 * pass, below the reported tail rank.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "parabit/cost_model.hpp"
#include "ssd/sched/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parabit;
using core::Mode;
using flash::BitwiseOp;

namespace {

constexpr std::array<Mode, 3> kModes = {
    Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree};

constexpr std::uint32_t kBulkStripes = 8;
/** Rounds of the six binary ops per mode in one paper_bulk pass. */
constexpr std::array<int, 3> kBulkRounds = {2, 1, 2};
constexpr std::uint32_t kJitterPages = 16;

const char *
modeKey(Mode m)
{
    switch (m) {
      case Mode::kPreAllocated: return "ParaBit";
      case Mode::kReAllocate: return "ReAlloc";
      case Mode::kLocationFree: return "LocFree";
    }
    return "?";
}

/**
 * Wraps benchmark calls into the device: host time always, and in
 * traced passes the scheduler's stage attribution of each call (the
 * same bracket HostInterface puts around one NVMe command).
 */
class Caller
{
  public:
    Caller(core::ParaBitDevice &dev, bool traced) : dev_(dev), traced_(traced)
    {
    }

    /** Run @p f, adding its host time to @p acc_s. */
    template <class F>
    auto
    operator()(double &acc_s, F &&f)
    {
        if (traced_)
            dev_.ssd().scheduler().beginCommandAttribution(token_);
        const Clock::time_point t0 = Clock::now();
        auto r = f();
        acc_s += secondsSince(t0);
        if (traced_) {
            dev_.ssd().scheduler().endCommandAttribution();
            const ssd::sched::StageTicks st =
                dev_.ssd().scheduler().takeCommandStages(token_++);
            const double n = static_cast<double>(std::max<std::uint64_t>(
                st.txCount, 1));
            queueWaitMs.push_back(ticks::toMs(st.queueWait) / n);
            arrayMs.push_back(ticks::toMs(st.phase[static_cast<std::size_t>(
                ssd::sched::PhaseKind::kArray)]));
        }
        return r;
    }

    /** Place data: a call returning nothing. */
    template <class F>
    void
    place(double &acc_s, F &&f)
    {
        (*this)(acc_s, [&] {
            f();
            return 0;
        });
    }

    /** Per call: mean scheduler queue wait per transaction, and booked
     *  array time (both simulated, traced passes only). */
    std::vector<double> queueWaitMs;
    std::vector<double> arrayMs;

  private:
    core::ParaBitDevice &dev_;
    bool traced_;
    std::uint64_t token_ = 0;
};

/** Hands out consecutive LPN ranges. */
struct LpnCursor
{
    nvme::Lpn next = 0;

    nvme::Lpn
    take(std::uint32_t n)
    {
        const nvme::Lpn l = next;
        next += n;
        return l;
    }
};

/** Filler that tops @p pages up to whole stripes of @p planes. */
std::uint32_t
stripeFill(std::uint32_t pages, std::uint32_t planes)
{
    return (planes - pages % planes) % planes;
}

/**
 * The accuracy table: in-flash simulated latency (no result transfer)
 * beside CostModel, which models exactly that, and beside the paper's
 * Fig 13 anchor where one exists.  gap_pct.<mode> is the mean
 * |sim - CostModel| / CostModel over the mode's cells.
 */
class Accuracy
{
  public:
    explicit Accuracy(const ssd::SsdConfig &cfg)
        : cm_(cfg), pageBytes_(cfg.geometry.pageBytes)
    {
    }

    /** Run one in-flash cell; @return the result for the caller's check. */
    core::ExecResult
    cell(core::ParaBitDevice &dev, BitwiseOp op, nvme::Lpn x, nvme::Lpn y,
         std::uint32_t pages, Mode mode, std::uint32_t stripes)
    {
        core::ExecResult r = dev.bitwise(op, x, y, pages, mode, false);
        const double sim_ms = ticks::toMs(r.stats.elapsed());
        const double model_ms =
            1e3 * cm_.binaryOp(op, static_cast<Bytes>(pages) * pageBytes_,
                               mode)
                      .seconds;
        const double gap =
            model_ms > 0 ? 100.0 * std::fabs(sim_ms - model_ms) / model_ms
                         : 0.0;
        const auto i = static_cast<std::size_t>(mode);
        sum_[i] += gap;
        ++n_[i];
        const bool anchor = mode == Mode::kPreAllocated && stripes == 1 &&
                            (op == BitwiseOp::kXor || op == BitwiseOp::kXnor);
        char line[200];
        std::snprintf(line, sizeof line,
                      "%-7s %-4s %u stripe(s) in flash: sim %9.3f ms  "
                      "CostModel %8.3f ms  gap %7.1f %%  %s",
                      modeKey(mode), flash::opName(op), stripes, sim_ms,
                      model_ms, gap,
                      anchor ? "paper 0.100 ms (Fig 13 anchor)"
                             : "(unvalidated)");
        lines_.push_back(line);
        sim_[std::string("accuracy.") + modeKey(mode) + "." +
             flash::opName(op)] = sim_ms;
        return r;
    }

    void
    write(PassOut &out) const
    {
        for (Mode m : kModes) {
            const auto i = static_cast<std::size_t>(m);
            const std::string key =
                std::string("parabit.cost_model.gap_pct.") + modeKey(m);
            out.sim[key] = out.layer[key] = n_[i] ? sum_[i] / n_[i] : 0.0;
        }
        out.sim.insert(sim_.begin(), sim_.end());
        out.notes.insert(out.notes.end(), lines_.begin(), lines_.end());
    }

  private:
    core::CostModel cm_;
    Bytes pageBytes_;
    std::array<double, 3> sum_{};
    std::array<int, 3> n_{};
    std::vector<std::string> lines_;
    std::map<std::string, double> sim_;
};

/** Record one timed op's simulated latency and work shape. */
void
noteLatency(PassOut &out, const core::ExecResult &r)
{
    out.simLatencyMs.push_back(ticks::toMs(r.stats.elapsed()));
    out.sim["exec.sense_ops"] += static_cast<double>(r.stats.senseOps);
    out.sim["exec.page_reads"] += static_cast<double>(r.stats.pageReads);
    out.sim["exec.page_programs"] += static_cast<double>(r.stats.pagePrograms);
    out.sim["exec.realloc_bytes"] += static_cast<double>(r.stats.reallocBytes);
}

/** Host seconds per timed op, by mode, as a note line. */
void
noteHostPerOp(PassOut &out, const std::array<double, 3> &s,
              const std::array<int, 3> &n)
{
    char line[160];
    std::snprintf(line, sizeof line,
                  "host ms per timed op: ParaBit %.2f  ReAlloc %.2f  "
                  "LocFree %.2f",
                  n[0] ? 1e3 * s[0] / n[0] : 0.0,
                  n[1] ? 1e3 * s[1] / n[1] : 0.0,
                  n[2] ? 1e3 * s[2] / n[2] : 0.0);
    out.notes.push_back(line);
}

/** The layer readings every paper workload shares. */
void
finishPaperPass(core::ParaBitDevice &dev, const TraceWindow &tw,
                const Caller &call, const BusySnapshot &b0,
                const BusySnapshot &b1, nvme::Lpn host_top, double place_s,
                const std::array<double, 3> &mode_s, Tick place_ticks,
                PassOut &out)
{
    out.simMakespanS = ticks::toMs(b1.at - b0.at) / 1e3;
    out.layer["parabit.device.place_s"] = place_s;
    out.layer["parabit.device.bitwise_s"] = mode_s[0] + mode_s[1] + mode_s[2];
    out.layer["parabit.device.place_sim_ms"] = ticks::toMs(place_ticks);
    out.sim["parabit.device.place_sim_ms"] = ticks::toMs(place_ticks);
    out.layer["ssd.sched.queue_wait_ms_p50"] = median(call.queueWaitMs);
    out.layer["flash.array_ms_p50"] = median(call.arrayMs);
    addProfileLayers(tw, out);
    addDeviceLayers(dev, tw, b0, b1, host_top, out);
}

} // namespace

PassOut
runPaperBulk(std::uint64_t seed, bool traced)
{
    TraceWindow tw(traced);
    PassOut out;
    Rng rng(seed ^ 0xB01C0FFEEull);

    const Clock::time_point t_setup = Clock::now();
    const ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    core::ParaBitDevice dev(cfg);
    Caller call(dev, traced);
    const std::uint32_t planes = cfg.geometry.planesTotal();
    const std::uint32_t whole = kBulkStripes * planes;
    const std::uint32_t jittered =
        whole + 1 + static_cast<std::uint32_t>(rng.below(kJitterPages));
    const std::array<std::uint32_t, 3> pages = {jittered, whole, jittered};

    // Operand ranges per mode, back to back, ReAlloc first.  The FTL
    // stripes writes over the planes round-robin (one plane per page or
    // pair), so the location-free pair shares planes page by page only
    // if a filler tops X up to whole stripes, and a last filler puts the
    // cursor back on a stripe boundary for the ReAlloc copies.
    LpnCursor lpns;
    std::array<std::pair<nvme::Lpn, nvme::Lpn>, 3> at;
    double place_s = 0;
    at[1] = {lpns.take(pages[1]), lpns.take(pages[1])};
    call.place(place_s, [&] { dev.writeMeta(at[1].first, pages[1]); });
    call.place(place_s, [&] { dev.writeMeta(at[1].second, pages[1]); });
    at[0] = {lpns.take(pages[0]), lpns.take(pages[0])};
    call.place(place_s, [&] {
        dev.writeMetaOperandPair(at[0].first, at[0].second, pages[0]);
    });
    const std::uint32_t fill = stripeFill(pages[2], planes);
    at[2].first = lpns.take(pages[2]);
    const nvme::Lpn f = lpns.take(fill);
    at[2].second = lpns.take(pages[2]);
    call.place(place_s, [&] { dev.writeMetaLsbOnly(at[2].first, pages[2]); });
    call.place(place_s, [&] { dev.writeMetaLsbOnly(f, fill); });
    call.place(place_s, [&] { dev.writeMetaLsbOnly(at[2].second, pages[2]); });
    const std::uint32_t align = stripeFill(pages[0] + pages[2], planes);
    const nvme::Lpn a = lpns.take(align);
    call.place(place_s, [&] { dev.writeMeta(a, align); });
    const Tick place_ticks = dev.now();
    out.setupS = secondsSince(t_setup);

    // Timed loop: ReAlloc's six ops first in a fixed order (their
    // latency depends on what ran before), then rounds of the six ops
    // per pre-allocated and location-free mode in a seed-drawn order.
    std::array<double, 3> mode_s{};
    std::array<int, 3> mode_n{};
    const BusySnapshot b0 = BusySnapshot::take(dev);
    for (int round = 0; round < 2; ++round) {
        std::array<BitwiseOp, 6> shuffled = kBinaryOps;
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
        for (std::size_t mi : {1, 0, 2}) {
            if (round >= kBulkRounds[mi])
                continue;
            const Mode mode = kModes[mi];
            const auto &order =
                mode == Mode::kReAllocate ? kBinaryOps : shuffled;
            for (BitwiseOp op : order) {
                const core::ExecResult r = call(mode_s[mi], [&] {
                    return dev.bitwise(op, at[mi].first, at[mi].second,
                                       pages[mi], mode);
                });
                ++mode_n[mi];
                // Timing-only: the outputs are the status and the work
                // shape, which each mode fixes exactly.
                const std::uint64_t want_programs =
                    mode == Mode::kReAllocate ? 2ull * pages[mi] : 0;
                PageVerdict v;
                if (r.stats.pagePrograms != want_programs)
                    v.wrongPages = v.unexplained = 1;
                out.tally.note(r.status == core::ExecStatus::kOk, v, 0);
                noteLatency(out, r);
                out.hostBytes += 2.0 * pages[mi] * cfg.geometry.pageBytes;
                ++out.ops;
            }
        }
    }
    out.loopS = mode_s[0] + mode_s[1] + mode_s[2];
    const BusySnapshot b1 = BusySnapshot::take(dev);

    // Accuracy at kBulkStripes whole stripes, in flash: XOR per mode.
    Accuracy acc(cfg);
    for (std::size_t mi = 0; mi < kModes.size(); ++mi) {
        const core::ExecResult r =
            acc.cell(dev, BitwiseOp::kXor, at[mi].first, at[mi].second, whole,
                     kModes[mi], kBulkStripes);
        out.tally.note(r.status == core::ExecStatus::kOk, {}, 0);
    }

    char line[200];
    std::snprintf(line, sizeof line,
                  "operands: 2 x %u pages (ParaBit, LocFree) / 2 x %u pages "
                  "(ReAlloc), 8 KiB pages; rounds of 6 ops: %d / %d / %d",
                  jittered, whole, kBulkRounds[0], kBulkRounds[1],
                  kBulkRounds[2]);
    out.notes.push_back(line);
    noteHostPerOp(out, mode_s, mode_n);
    acc.write(out);
    finishPaperPass(dev, tw, call, b0, b1, lpns.next - 1, place_s, mode_s,
                    place_ticks, out);
    return out;
}

PassOut
runPaperGrid(std::uint64_t seed, bool traced)
{
    TraceWindow tw(traced);
    PassOut out;
    Rng rng(seed ^ 0x6121DF00Dull);

    const Clock::time_point t_setup = Clock::now();
    ssd::SsdConfig cfg = ssd::SsdConfig::paperSsd();
    cfg.storeData = true;
    core::ParaBitDevice dev(cfg);
    Caller call(dev, traced);
    const std::uint32_t planes = cfg.geometry.planesTotal();
    const std::size_t bits = cfg.geometry.pageBits();
    const std::uint32_t jittered =
        planes + 1 + static_cast<std::uint32_t>(rng.below(kJitterPages));
    double own_s = 0; // payload generation and oracle work

    struct Operand
    {
        nvme::Lpn lpn = 0;
        std::vector<BitVector> data;
    };
    LpnCursor lpns;
    const auto operand = [&](std::uint32_t n) {
        const Clock::time_point t0 = Clock::now();
        Operand o{lpns.take(n), randomPages(n, bits, rng)};
        own_s += secondsSince(t0);
        return o;
    };
    const std::vector<BitVector> filler(planes, BitVector(bits));
    const auto fillStripes = [&](std::uint32_t n) {
        return std::vector<BitVector>(filler.begin(), filler.begin() + n);
    };
    double place_s = 0;

    // ReAlloc first: two plain host writes.  ParaBit: one co-located
    // pair.  (Placement order and the final filler as in paper_bulk.)
    Operand rx = operand(planes), ry = operand(planes);
    call.place(place_s, [&] { dev.writeData(rx.lpn, rx.data); });
    call.place(place_s, [&] { dev.writeData(ry.lpn, ry.data); });
    Operand px = operand(jittered), py = operand(jittered);
    call.place(place_s,
               [&] { dev.writeOperandPair(px.lpn, py.lpn, px.data, py.data); });

    // LocFree, as plain host writes leave it: each stripe-long write
    // takes the next page of every plane's wordline, alternating LSB and
    // MSB, so after a one-stripe filler A lands in MSB pages, and after
    // another filler so does B, in the same planes.
    Operand ma, mb;
    for (Operand *o : {&ma, &mb}) {
        const nvme::Lpn f = lpns.take(planes);
        call.place(place_s, [&] { dev.writeData(f, fillStripes(planes)); });
        *o = operand(planes);
        call.place(place_s, [&] { dev.writeData(o->lpn, o->data); });
    }
    // LocFree, as the paper places it: LSB-only, X and Y in the same
    // planes (a filler tops X up to whole stripes).
    Operand lx = operand(jittered);
    call.place(place_s, [&] { dev.writeDataLsbOnly(lx.lpn, lx.data); });
    const auto fillLsbOnly = [&](std::uint32_t n) {
        const nvme::Lpn f = lpns.take(n);
        call.place(place_s,
                   [&] { dev.writeDataLsbOnly(f, fillStripes(n)); });
    };
    fillLsbOnly(stripeFill(jittered, planes));
    Operand ly = operand(jittered);
    call.place(place_s, [&] { dev.writeDataLsbOnly(ly.lpn, ly.data); });
    fillLsbOnly(stripeFill(2 * jittered, planes));
    const Tick place_ticks = dev.now();
    out.setupS = secondsSince(t_setup) - own_s; // input generation excluded

    const auto check = [&](const core::ExecResult &r, BitwiseOp op,
                           const Operand &x, const Operand &y,
                           std::uint32_t pages,
                           const std::vector<bool> &defect) {
        const Clock::time_point t0 = Clock::now();
        std::vector<BitVector> want;
        want.reserve(pages);
        for (std::uint32_t p = 0; p < pages; ++p)
            want.push_back(hostBitwise(op, x.data[p], y.data[p]));
        const PageVerdict v = checkPages(r.pages, want, defect);
        own_s += secondsSince(t0);
        out.tally.note(r.status == core::ExecStatus::kOk, v, pages);
        return v;
    };

    // Timed loop: each binary op once per mode, ReAlloc first as in
    // paper_bulk.  Location-free XOR and NAND run on the plain-written
    // MSB+MSB pair, the others on the paper's LSB-only pair.
    std::array<double, 3> mode_s{};
    std::array<int, 3> mode_n{};
    std::uint64_t predicted_pages = 0;
    std::vector<std::string> op_lines;
    const BusySnapshot b0 = BusySnapshot::take(dev);
    for (std::size_t mi : {1, 0, 2}) {
        const Mode mode = kModes[mi];
        for (BitwiseOp op : kBinaryOps) {
            const Operand *x = &px, *y = &py;
            std::uint32_t pages = jittered;
            if (mode == Mode::kReAllocate) {
                x = &rx;
                y = &ry;
                pages = planes;
            } else if (mode == Mode::kLocationFree) {
                const bool plain =
                    op == BitwiseOp::kXor || op == BitwiseOp::kNand;
                x = plain ? &ma : &lx;
                y = plain ? &mb : &ly;
                pages = plain ? planes : jittered;
            }
            // Predict the known location-free defect before running:
            // both operand pages in MSB pages of one plane.
            std::vector<bool> defect(pages, false);
            if (mode == Mode::kLocationFree) {
                for (std::uint32_t p = 0; p < pages; ++p) {
                    const auto a = dev.ssd().ftl().lookup(x->lpn + p);
                    const auto b = dev.ssd().ftl().lookup(y->lpn + p);
                    defect[p] = a && b && a->msb && b->msb &&
                                a->sameBitlines(*b);
                    predicted_pages += defect[p];
                }
            }
            const core::ExecResult r = call(mode_s[mi], [&] {
                return dev.bitwise(op, x->lpn, y->lpn, pages, mode);
            });
            ++mode_n[mi];
            const PageVerdict v = check(r, op, *x, *y, pages, defect);
            noteLatency(out, r);
            out.hostBytes += 2.0 * pages * cfg.geometry.pageBytes;
            ++out.ops;
            {
                char line[200];
                std::snprintf(line, sizeof line,
                              "%-7s %-4s %u pages, result to host: sim %9.3f "
                              "ms  (unvalidated)",
                              modeKey(mode), flash::opName(op), pages,
                              out.simLatencyMs.back());
                op_lines.push_back(line);
            }
            if (v.wrongPages > 0) {
                char line[200];
                std::snprintf(line, sizeof line,
                              "wrong result: %s %s, %zu of %u pages wrong "
                              "(%zu outside predicted MSB+MSB sites), status "
                              "%s",
                              modeKey(mode), flash::opName(op), v.wrongPages,
                              pages, v.unexplained,
                              core::execStatusName(r.status));
                op_lines.push_back(line);
            }
        }
    }
    out.loopS = mode_s[0] + mode_s[1] + mode_s[2];
    const BusySnapshot b1 = BusySnapshot::take(dev);

    // Accuracy grid: every op x mode at exactly one stripe, in flash,
    // on the paper's placements (checked too; not timed).
    Accuracy acc(cfg);
    for (Mode mode : kModes) {
        const Operand &x = mode == Mode::kPreAllocated ? px
                           : mode == Mode::kReAllocate ? rx
                                                       : lx;
        const Operand &y = mode == Mode::kPreAllocated ? py
                           : mode == Mode::kReAllocate ? ry
                                                       : ly;
        for (BitwiseOp op : kBinaryOps)
            check(acc.cell(dev, op, x.lpn, y.lpn, planes, mode, 1), op, x, y,
                  planes, {});
    }

    char head[200];
    std::snprintf(head, sizeof head,
                  "operands: 2 x %u pages (ParaBit, LocFree LSB-only) / 2 x "
                  "%u pages (ReAlloc, LocFree plain MSB+MSB), 8 KiB pages",
                  jittered, planes);
    out.notes.push_back(head);
    noteHostPerOp(out, mode_s, mode_n);
    out.notes.insert(out.notes.end(), op_lines.begin(), op_lines.end());
    acc.write(out);
    out.layer["bench.own_s"] = own_s;
    out.sim["oracle.predicted_defect_pages"] =
        static_cast<double>(predicted_pages);
    finishPaperPass(dev, tw, call, b0, b1, lpns.next - 1, place_s, mode_s,
                    place_ticks, out);
    return out;
}

} // namespace perfbench
