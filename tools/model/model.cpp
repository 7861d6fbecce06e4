#include "model.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "ssd/ssd.hpp"

namespace parabit::model {
namespace {

using ssd::Lpn;
using ssd::SsdConfig;
using ssd::SsdDevice;

/** Exploration stops accumulating findings past this point — one
 *  counterexample is enough to replay, thousands drown the report. */
constexpr std::size_t kMaxFindings = 32;

/** Crash-window scratch writes start here, clear of the alphabet's
 *  LPNs and anything a test might corrupt. */
constexpr Lpn kScratchBase = 32;

ssd::sched::SchedPolicyKind
policyFromName(const std::string &name)
{
    for (int i = 0; i < ssd::sched::kNumSchedPolicies; ++i) {
        const auto k = static_cast<ssd::sched::SchedPolicyKind>(i);
        if (name == ssd::sched::policyName(k))
            return k;
    }
    fatal("parabit-model: unknown policy \"" + name + "\"");
}

/** The checker's device: 2 channels x 2 dies, a few blocks, payloads
 *  stored, SPOR recovery + RAIN + media on so every registered suite
 *  has real state to audit.  Small enough that one path executes in
 *  well under a millisecond. */
SsdConfig
modelConfig(const ModelOptions &opts, const std::string &policy)
{
    SsdConfig cfg;
    cfg.geometry.channels = 2;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.diesPerChip = 2;
    cfg.geometry.planesPerDie = 1;
    cfg.geometry.blocksPerPlane = 8;
    cfg.geometry.wordlinesPerBlock = 4;
    cfg.geometry.pageBytes = 32;
    cfg.storeData = true;
    cfg.seed = opts.seed;
    cfg.recovery.enabled = true;
    cfg.rain.enabled = true;
    cfg.media.enabled = true;
    // Patrol scrub armed but quiet on the tiny device.
    cfg.media.scrubInterval = ticks::fromUs(500); // lint:allow(naked-duration)
    cfg.sched.policy = policyFromName(policy);
    // The checker audits explicitly after every action and reports
    // violations as findings; the device's own cadence would panic.
    cfg.invariants.auditInterval = 0;
    cfg.invariants.fatalOnViolation = false;
    return cfg;
}

/** Deterministic page payload for (lpn, version) under the run seed. */
BitVector
payload(std::size_t bits, Lpn lpn, std::uint64_t version,
        std::uint64_t seed)
{
    Rng rng(seed ^ ((lpn + 1) * 0x9E3779B97F4A7C15ull) ^
            (version * 0xD1B54A32D192ED03ull));
    BitVector v(bits, false);
    for (std::size_t i = 0; i < bits; ++i)
        v.set(i, (rng.next() & 1) != 0);
    return v;
}

/** Short stable digest of a page for result-equivalence comparison. */
std::string
digest(const BitVector &v)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < v.size(); ++i)
        h = (h ^ (v.get(i) ? 0x9Eu + (i & 0xFF) : i & 0xFF)) *
            0x100000001B3ull;
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
pathString(const std::vector<int> &path, std::size_t len)
{
    std::string s;
    for (std::size_t i = 0; i < len && i < path.size(); ++i)
        s += (i ? "," : "") + std::to_string(path[i]);
    return s;
}

/** Host-visible outcome of one executed path under one policy. */
struct PathOutcome
{
    /** One entry per step: read digests, write acks, crash summary —
     *  the sequence every policy must reproduce exactly. */
    std::vector<std::string> results;
    std::vector<ModelFinding> findings;
    std::uint64_t actionsApplied = 0;
    std::uint64_t auditsRun = 0;
    std::uint64_t checksRun = 0;
    std::uint64_t crashesInjected = 0;
};

/** Execute @p path's first @p len actions on a fresh device. */
PathOutcome
runPath(const ModelOptions &opts, const std::vector<Action> &alphabet,
        const std::vector<int> &path, std::size_t len,
        const std::string &policy)
{
    PathOutcome out;
    SsdDevice dev(modelConfig(opts, policy));
    ssd::Ftl &ftl = dev.ftl();
    const std::size_t bits = dev.geometry().pageBits();

    std::unordered_map<Lpn, BitVector> oracle; ///< acked value per LPN
    std::unordered_set<Lpn> weak; ///< last write unacked: either way is legal
    Tick t = 0;
    Lpn scratch = kScratchBase;

    auto fail = [&](std::size_t step, std::string check, std::string subject,
                    std::string message) {
        out.findings.push_back(
            {std::move(check), std::move(subject), std::move(message),
             policy,
             std::vector<int>(path.begin(),
                              path.begin() +
                                  static_cast<std::ptrdiff_t>(step + 1))});
    };

    /** Acked mappings must read back their oracle value. */
    auto sweep = [&](std::size_t step, const char *when) {
        for (const auto &[lpn, val] : oracle) {
            if (weak.count(lpn))
                continue;
            if (!ftl.lookup(lpn)) {
                fail(step, "durability", "lpn " + std::to_string(lpn),
                     std::string("acked write lost ") + when);
                continue;
            }
            std::vector<ssd::PhysOp> ops;
            if (!(*ftl.readPage(lpn, ops) == val))
                fail(step, "durability", "lpn " + std::to_string(lpn),
                     std::string("acked value changed ") + when);
            t = dev.scheduleOps(ops, t);
        }
    };

    for (std::size_t step = 0; step < len; ++step) {
        const Action &a = alphabet.at(static_cast<std::size_t>(path[step]));
        std::vector<ssd::PhysOp> ops;
        switch (a.kind) {
          case Action::Kind::kWrite: {
            const BitVector val = payload(bits, a.lpn, step, opts.seed);
            const bool acked = ftl.writePage(a.lpn, &val, ops);
            t = dev.scheduleOps(ops, t);
            if (acked) {
                oracle.insert_or_assign(a.lpn, val);
                weak.erase(a.lpn);
            } else {
                weak.insert(a.lpn);
            }
            out.results.push_back(std::string("w") +
                                  std::to_string(a.lpn) +
                                  (acked ? ":acked" : ":dropped"));
            break;
          }
          case Action::Kind::kRead: {
            const bool mapped = ftl.lookup(a.lpn).has_value();
            std::string got = "unmapped";
            if (mapped) {
                const flash::Payload page = ftl.readPage(a.lpn, ops);
                t = dev.scheduleOps(ops, t);
                got = digest(*page);
                const auto it = oracle.find(a.lpn);
                if (!weak.count(a.lpn)) {
                    if (it == oracle.end())
                        fail(step, "linearizability",
                             "lpn " + std::to_string(a.lpn),
                             "read hit a mapping the oracle says was "
                             "never acked (or was trimmed)");
                    else if (!(*page == it->second))
                        fail(step, "linearizability",
                             "lpn " + std::to_string(a.lpn),
                             "read returned a value other than the last "
                             "acked write's");
                }
            } else if (oracle.count(a.lpn) && !weak.count(a.lpn)) {
                fail(step, "linearizability",
                     "lpn " + std::to_string(a.lpn),
                     "acked write has no mapping");
            }
            out.results.push_back("r" + std::to_string(a.lpn) + ":" + got);
            break;
          }
          case Action::Kind::kTrim: {
            ftl.trim(a.lpn, &ops);
            t = dev.scheduleOps(ops, t);
            oracle.erase(a.lpn);
            weak.erase(a.lpn);
            out.results.push_back("t" + std::to_string(a.lpn));
            break;
          }
          case Action::Kind::kCrash: {
            ++out.crashesInjected;
            Rng draw(opts.seed ^ (0xC7A5Full + step * 0x9E37ull));
            ssd::FaultSpec cut;
            cut.cls = ssd::FaultClass::kPowerLoss;
            cut.onset = static_cast<std::uint32_t>(draw.below(3));
            const std::uint64_t cutDraw = draw.below(3);
            if (cutDraw == 0)
                cut.cutMidProgram = true;
            else if (cutDraw == 1)
                cut.cutMidProgram = false;
            dev.injectFault(cut);
            // Drive writes until the armed cut fires; every ack extends
            // the oracle, the in-flight victim lands in the weak set.
            int guard = 32;
            while (!ftl.powerLost() && guard-- > 0) {
                const Lpn l = scratch++;
                const BitVector val = payload(bits, l, step, opts.seed);
                ops.clear();
                const bool acked = ftl.writePage(l, &val, ops);
                t = dev.scheduleOps(ops, t);
                if (acked)
                    oracle.insert_or_assign(l, val);
                else
                    weak.insert(l);
            }
            if (!ftl.powerLost()) {
                fail(step, "fault", "crash",
                     "armed power cut never fired within the write guard");
                out.results.push_back("crash:misfire");
                break;
            }
            const ssd::RecoveryReport rep = dev.powerCycle(t);
            t += rep.scanTime;
            if (!rep.recovered)
                fail(step, "fault", "crash",
                     "power cycle did not recover the device");
            sweep(step, "across the power cycle");
            out.results.push_back(
                "crash:onset" + std::to_string(cut.onset) +
                (rep.recovered ? ":recovered" : ":unrecovered"));
            break;
          }
        }
        ++out.actionsApplied;

        if (static_cast<int>(step) == opts.corruptAfterStep)
            ftl.debugCorruptMapping(opts.corruptLpn);

        InvariantReport ir;
        dev.invariantRegistry().runAll(ir);
        ++out.auditsRun;
        out.checksRun += ir.checksRun;
        for (const Violation &v : ir.violations)
            fail(step, "invariant", v.id, v.subject + ": " + v.detail);

        // A violated path is the counterexample — running further
        // actions on corrupt state would only cascade (or crash the
        // simulator's own checks).
        if (!out.findings.empty())
            return out;
    }
    sweep(len ? len - 1 : 0, "at the end of the path");
    return out;
}

bool
isWrite(const Action &a)
{
    return a.kind == Action::Kind::kWrite;
}

bool
isCrash(const Action &a)
{
    return a.kind == Action::Kind::kCrash;
}

/**
 * Whether adjacent actions @p a and @p b may NOT be freely reordered.
 * Same-LPN pairs obviously conflict; two writes contend for physical
 * placement (allocator/GC state); the crash interacts with everything.
 * Independent pairs commute on every property the checker asserts, so
 * only their canonical (index-ascending) order is explored.
 */
bool
dependent(const Action &a, const Action &b)
{
    if (isCrash(a) || isCrash(b))
        return true;
    if (a.lpn == b.lpn)
        return true;
    return isWrite(a) && isWrite(b);
}

/** Run @p path under every configured policy, folding per-policy
 *  findings and the cross-policy equivalence check into @p report. */
void
checkPath(const ModelOptions &opts, const std::vector<Action> &alphabet,
          const std::vector<int> &path, std::size_t len,
          ModelReport &report)
{
    ++report.pathsExplored;
    report.maxDepth = std::max<std::uint64_t>(report.maxDepth, len);
    PathOutcome baseline;
    for (std::size_t p = 0; p < opts.policies.size(); ++p) {
        PathOutcome out =
            runPath(opts, alphabet, path, len, opts.policies[p]);
        report.actionsApplied += out.actionsApplied;
        report.auditsRun += out.auditsRun;
        report.checksRun += out.checksRun;
        report.crashesInjected += out.crashesInjected;
        for (ModelFinding &f : out.findings)
            if (report.findings.size() < kMaxFindings)
                report.findings.push_back(std::move(f));
        if (p == 0) {
            baseline = std::move(out);
        } else if (baseline.findings.empty() && out.findings.empty() &&
                   out.results != baseline.results &&
                   report.findings.size() < kMaxFindings) {
            std::size_t k = 0;
            while (k < out.results.size() && k < baseline.results.size() &&
                   out.results[k] == baseline.results[k])
                ++k;
            report.findings.push_back(
                {"policy_equivalence",
                 opts.policies[0] + " vs " + opts.policies[p],
                 "host-visible results diverge at step " +
                     std::to_string(k) + " of path [" +
                     pathString(path, len) + "]",
                 opts.policies[p],
                 std::vector<int>(path.begin(),
                                  path.begin() +
                                      static_cast<std::ptrdiff_t>(len))});
        }
    }
}

void
dfs(const ModelOptions &opts, const std::vector<Action> &alphabet,
    std::vector<int> &path, int crashesLeft, ModelReport &report)
{
    if (report.findings.size() >= kMaxFindings)
        return;
    if (path.size() == static_cast<std::size_t>(opts.depth)) {
        checkPath(opts, alphabet, path, path.size(), report);
        return;
    }
    for (const Action &a : alphabet) {
        if (isCrash(a) && crashesLeft <= 0)
            continue;
        if (opts.por && !path.empty()) {
            const Action &prev = alphabet.at(
                static_cast<std::size_t>(path.back()));
            if (a.index < prev.index && !dependent(prev, a)) {
                ++report.pathsPruned;
                continue;
            }
        }
        path.push_back(a.index);
        dfs(opts, alphabet, path, crashesLeft - (isCrash(a) ? 1 : 0),
            report);
        path.pop_back();
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
Action::describe() const
{
    switch (kind) {
      case Kind::kWrite: return "W(" + std::to_string(lpn) + ")";
      case Kind::kRead: return "R(" + std::to_string(lpn) + ")";
      case Kind::kTrim: return "T(" + std::to_string(lpn) + ")";
      case Kind::kCrash: return "CRASH";
    }
    return "?";
}

std::vector<Action>
actionAlphabet(const ModelOptions &opts)
{
    std::vector<Action> v;
    auto add = [&](Action::Kind k, Lpn lpn) {
        Action a;
        a.kind = k;
        a.lpn = lpn;
        a.index = static_cast<int>(v.size());
        v.push_back(a);
    };
    for (int l = 0; l < opts.lpns; ++l)
        add(Action::Kind::kWrite, static_cast<Lpn>(l));
    for (int l = 0; l < opts.lpns; ++l)
        add(Action::Kind::kRead, static_cast<Lpn>(l));
    add(Action::Kind::kTrim, 0);
    if (opts.faultBudget > 0)
        add(Action::Kind::kCrash, 0);
    return v;
}

ModelReport
runModel(const ModelOptions &opts)
{
    const std::vector<Action> alphabet = actionAlphabet(opts);
    ModelReport report;
    std::vector<int> path;
    path.reserve(static_cast<std::size_t>(opts.depth));
    dfs(opts, alphabet, path, opts.faultBudget, report);
    return report;
}

ModelReport
replayPath(const ModelOptions &opts, const std::vector<int> &path)
{
    const std::vector<Action> alphabet = actionAlphabet(opts);
    for (int i : path)
        if (i < 0 || static_cast<std::size_t>(i) >= alphabet.size())
            fatal("parabit-model: replay index " + std::to_string(i) +
                  " is outside the action alphabet");
    ModelReport report;
    checkPath(opts, alphabet, path, path.size(), report);
    return report;
}

std::string
toJson(const ModelReport &r, const ModelOptions &opts)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"tool\": \"parabit-model\",\n"
       << "  \"ok\": " << (r.ok() ? "true" : "false") << ",\n"
       << "  \"config\": {\n"
       << "    \"depth\": " << opts.depth << ",\n"
       << "    \"lpns\": " << opts.lpns << ",\n"
       << "    \"fault_budget\": " << opts.faultBudget << ",\n"
       << "    \"seed\": " << opts.seed << ",\n"
       << "    \"por\": " << (opts.por ? "true" : "false") << ",\n"
       << "    \"policies\": [";
    for (std::size_t i = 0; i < opts.policies.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(opts.policies[i])
           << '"';
    os << "],\n"
       << "    \"device\": \"2ch x 1chip x 2die x 1plane x 8blk x 4wl\"\n"
       << "  },\n"
       << "  \"paths_explored\": " << r.pathsExplored << ",\n"
       << "  \"paths_pruned\": " << r.pathsPruned << ",\n"
       << "  \"actions_applied\": " << r.actionsApplied << ",\n"
       << "  \"audits_run\": " << r.auditsRun << ",\n"
       << "  \"checks_run\": " << r.checksRun << ",\n"
       << "  \"crashes_injected\": " << r.crashesInjected << ",\n"
       << "  \"max_depth\": " << r.maxDepth << ",\n"
       << "  \"findings\": [";
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
        const ModelFinding &f = r.findings[i];
        os << (i ? "," : "") << "\n    {\n"
           << "      \"check\": \"" << jsonEscape(f.check) << "\",\n"
           << "      \"subject\": \"" << jsonEscape(f.subject) << "\",\n"
           << "      \"message\": \"" << jsonEscape(f.message) << "\",\n"
           << "      \"policy\": \"" << jsonEscape(f.policy) << "\",\n"
           << "      \"path\": [";
        for (std::size_t j = 0; j < f.path.size(); ++j)
            os << (j ? ", " : "") << f.path[j];
        os << "]\n    }";
    }
    os << (r.findings.empty() ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

bool
parseTrace(const std::string &json, std::vector<int> &path,
           std::uint64_t &seed, std::string &err)
{
    const std::size_t seedKey = json.find("\"seed\":");
    if (seedKey != std::string::npos)
        seed = std::strtoull(json.c_str() + seedKey + 7, nullptr, 10);
    const std::size_t key = json.find("\"path\":");
    if (key == std::string::npos) {
        err = "no \"path\" array (report has no findings to replay?)";
        return false;
    }
    std::size_t i = json.find('[', key);
    const std::size_t end = json.find(']', key);
    if (i == std::string::npos || end == std::string::npos) {
        err = "malformed \"path\" array";
        return false;
    }
    path.clear();
    ++i;
    while (i < end) {
        while (i < end && (json[i] == ' ' || json[i] == ',' ||
                           json[i] == '\n'))
            ++i;
        if (i >= end)
            break;
        char *stop = nullptr;
        const long v = std::strtol(json.c_str() + i, &stop, 10);
        if (stop == json.c_str() + i) {
            err = "malformed \"path\" entry";
            return false;
        }
        path.push_back(static_cast<int>(v));
        i = static_cast<std::size_t>(stop - json.c_str());
    }
    if (path.empty()) {
        err = "empty \"path\" array";
        return false;
    }
    return true;
}

} // namespace parabit::model
