#include "trace_check.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace parabit::tracecheck {

namespace {

/**
 * Minimal JSON value: enough for the subset obs::TraceSink emits
 * (objects, arrays, strings, numbers, booleans, null).  Numbers keep
 * their raw text so timestamps can be converted to integer nanoseconds
 * without floating-point round-off.
 */
struct JsonValue
{
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    std::string text; ///< number raw text, or string content
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    field(const std::string &key) const
    {
        for (const auto &f : fields)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }
};

/** Recursive-descent parser over the trace JSON subset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return false;
        }
        return true;
    }

    const std::string &error() const { return error_; }
    std::size_t errorOffset() const { return errorPos_; }

  private:
    void
    fail(const std::string &why)
    {
        if (error_.empty()) {
            error_ = why;
            errorPos_ = pos_;
        }
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0) {
            fail(std::string("expected ") + word);
            return false;
        }
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of document");
            return false;
        }
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            return parseString(out.text);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::kNull;
            return literal("null");
        }
        return parseNumber(out);
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                fail("expected ':' after key");
                return false;
            }
            ++pos_;
            skipWs();
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.fields.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kArray;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.items.push_back(std::move(v));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size()) {
                    fail("truncated escape");
                    return false;
                }
                const char e = text_[pos_ + 1];
                if (e == '"' || e == '\\' || e == '/')
                    out += e;
                else if (e == 'n')
                    out += '\n';
                else if (e == 't')
                    out += '\t';
                else if (e == 'r')
                    out += '\r';
                else {
                    fail("unsupported escape");
                    return false;
                }
                pos_ += 2;
                continue;
            }
            out += c;
            ++pos_;
        }
        fail("unterminated string");
        return false;
    }

    bool
    parseNumber(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kNumber;
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) {
            fail("expected a value");
            return false;
        }
        out.text = text_.substr(start, pos_ - start);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
    std::size_t errorPos_ = 0;
};

/**
 * Convert a trace timestamp ("microseconds, up to three decimals") to
 * integer nanoseconds.  Returns false for negative/float-exponent text
 * the sink never emits.
 */
bool
toNanos(const std::string &text, std::uint64_t &out)
{
    std::uint64_t whole = 0;
    std::size_t i = 0;
    if (i >= text.size() || text[i] == '-')
        return false;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i)
        whole = whole * 10 + static_cast<std::uint64_t>(text[i] - '0');
    std::uint64_t frac = 0;
    int digits = 0;
    if (i < text.size() && text[i] == '.') {
        for (++i; i < text.size() && text[i] >= '0' && text[i] <= '9';
             ++i) {
            if (digits < 3) {
                frac = frac * 10 + static_cast<std::uint64_t>(text[i] - '0');
                ++digits;
            }
        }
    }
    if (i != text.size())
        return false;
    while (digits < 3) {
        frac *= 10;
        ++digits;
    }
    out = whole * 1000 + frac;
    return true;
}

/** One "X" span on a track, in integer nanoseconds. */
struct Span
{
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::string name;
    long long tx = -1; ///< args.tx, if present
    std::size_t eventIndex = 0;
};

/** Scheduler phase order for the phase-order check; -1 = unknown. */
int
stageOf(const std::string &phase)
{
    if (phase == "xfer_in")
        return 0;
    if (phase == "resume" || phase == "array" || phase == "suspend")
        return 1;
    if (phase == "xfer_out")
        return 2;
    return -1;
}

class TraceChecker
{
  public:
    CheckResult
    run(const std::string &json)
    {
        JsonValue root;
        JsonParser parser(json);
        if (!parser.parse(root)) {
            add("json", parser.error() + " (offset " +
                            std::to_string(parser.errorOffset()) + ")");
            return std::move(result_);
        }
        if (root.kind != JsonValue::Kind::kObject) {
            add("json", "top level is not an object");
            return std::move(result_);
        }
        const JsonValue *events = root.field("traceEvents");
        if (!events || events->kind != JsonValue::Kind::kArray) {
            add("json", "missing \"traceEvents\" array");
            return std::move(result_);
        }
        for (std::size_t i = 0; i < events->items.size(); ++i)
            ingest(events->items[i], i);
        result_.stats.events = events->items.size();
        result_.stats.processes = processNames_.size();
        result_.stats.tracks = threadNames_.size();
        checkAsyncPairs();
        checkTrackSpans();
        checkPhaseOrder();
        checkFlowLinkage();
        return std::move(result_);
    }

  private:
    void
    add(const std::string &check, const std::string &message)
    {
        result_.findings.push_back({check, message});
    }

    static bool
    readUint(const JsonValue &obj, const char *key, std::uint64_t &out)
    {
        const JsonValue *v = obj.field(key);
        if (!v || v->kind != JsonValue::Kind::kNumber)
            return false;
        std::uint64_t n = 0;
        for (char c : v->text) {
            if (c < '0' || c > '9')
                return false;
            n = n * 10 + static_cast<std::uint64_t>(c - '0');
        }
        out = n;
        return true;
    }

    static bool
    readString(const JsonValue &obj, const char *key, std::string &out)
    {
        const JsonValue *v = obj.field(key);
        if (!v || v->kind != JsonValue::Kind::kString)
            return false;
        out = v->text;
        return true;
    }

    static bool
    readTime(const JsonValue &obj, const char *key, std::uint64_t &out)
    {
        const JsonValue *v = obj.field(key);
        return v && v->kind == JsonValue::Kind::kNumber &&
               toNanos(v->text, out);
    }

    void
    ingest(const JsonValue &e, std::size_t index)
    {
        const std::string at = "event " + std::to_string(index);
        if (e.kind != JsonValue::Kind::kObject) {
            add("json", at + ": not an object");
            return;
        }
        std::string ph;
        if (!readString(e, "ph", ph)) {
            add("json", at + ": missing \"ph\"");
            return;
        }
        std::uint64_t pid = 0;
        std::uint64_t tid = 0;
        if (!readUint(e, "pid", pid) || !readUint(e, "tid", tid)) {
            add("json", at + ": missing pid/tid");
            return;
        }
        if (ph == "M") {
            std::string name;
            std::string value;
            const JsonValue *args = e.field("args");
            if (!readString(e, "name", name) || !args ||
                !readString(*args, "name", value)) {
                add("json", at + ": metadata without name args");
                return;
            }
            if (name == "process_name")
                processNames_[pid] = value;
            else if (name == "thread_name")
                threadNames_[{pid, tid}] = value;
            return;
        }
        if (ph == "X") {
            Span s;
            s.eventIndex = index;
            if (!readTime(e, "ts", s.ts) || !readTime(e, "dur", s.dur) ||
                !readString(e, "name", s.name)) {
                add("json", at + ": X event without ts/dur/name");
                return;
            }
            if (const JsonValue *args = e.field("args")) {
                std::uint64_t tx = 0;
                if (readUint(*args, "tx", tx))
                    s.tx = static_cast<long long>(tx);
            }
            spans_[{pid, tid}].push_back(std::move(s));
            ++result_.stats.spans;
            return;
        }
        if (ph == "s" || ph == "t" || ph == "f") {
            std::string cat;
            std::string id;
            std::string name;
            std::uint64_t ts = 0;
            if (!readString(e, "cat", cat) || !readString(e, "id", id) ||
                !readString(e, "name", name) || !readTime(e, "ts", ts)) {
                add("json", at + ": flow event without cat/id/name/ts");
                return;
            }
            // Flows bind across processes, so the key has no pid.
            Flow &f = flows_[cat + ":" + id];
            if (ph == "s") {
                ++f.starts;
                f.startTs = ts;
                f.startName = name;
            } else if (ph == "f") {
                ++f.finishes;
                f.finishTs = ts;
                f.finishName = name;
            } else {
                f.steps.push_back(FlowStep{ts, pid, tid, index, name});
            }
            return;
        }
        if (ph == "b" || ph == "e") {
            std::string cat;
            std::string id;
            std::string name;
            std::uint64_t ts = 0;
            if (!readString(e, "cat", cat) || !readString(e, "id", id) ||
                !readString(e, "name", name) || !readTime(e, "ts", ts)) {
                add("json", at + ": async event without cat/id/name/ts");
                return;
            }
            AsyncPair &p =
                asyncs_[std::to_string(pid) + ":" + cat + ":" + id];
            if (ph == "b") {
                ++p.begins;
                p.beginTs = ts;
                p.beginName = name;
            } else {
                ++p.ends;
                p.endTs = ts;
                p.endName = name;
            }
            return;
        }
        add("json", at + ": unknown phase \"" + ph + "\"");
    }

    void
    checkAsyncPairs()
    {
        for (const auto &[key, p] : asyncs_) {
            if (p.begins != 1 || p.ends != 1) {
                add("async-pairing",
                    "async " + key + ": " + std::to_string(p.begins) +
                        " begin(s), " + std::to_string(p.ends) +
                        " end(s); want exactly one of each");
                continue;
            }
            if (p.beginName != p.endName)
                add("async-pairing", "async " + key + ": begin name \"" +
                                         p.beginName + "\" != end name \"" +
                                         p.endName + "\"");
            if (p.endTs < p.beginTs)
                add("async-pairing",
                    "async " + key + ": ends before it begins");
            ++result_.stats.asyncPairs;
        }
    }

    std::string
    trackLabel(const std::pair<std::uint64_t, std::uint64_t> &track) const
    {
        std::string process = "pid " + std::to_string(track.first);
        const auto pit = processNames_.find(track.first);
        if (pit != processNames_.end())
            process = pit->second;
        std::string thread = "tid " + std::to_string(track.second);
        const auto tit = threadNames_.find(track);
        if (tit != threadNames_.end())
            thread = tit->second;
        return process + "/" + thread;
    }

    bool
    resourceTrack(std::uint64_t pid) const
    {
        const auto it = processNames_.find(pid);
        return it != processNames_.end() &&
               (it->second == "channels" || it->second == "dies");
    }

    void
    checkTrackSpans()
    {
        for (auto &[track, spans] : spans_) {
            std::sort(spans.begin(), spans.end(),
                      [](const Span &a, const Span &b) {
                          if (a.ts != b.ts)
                              return a.ts < b.ts;
                          return a.dur > b.dur; // enclosing span first
                      });
            if (resourceTrack(track.first)) {
                // Exclusive resource: no two spans may overlap at all.
                for (std::size_t i = 1; i < spans.size(); ++i) {
                    const Span &prev = spans[i - 1];
                    const Span &cur = spans[i];
                    if (cur.ts < prev.ts + prev.dur)
                        add("track-exclusivity",
                            trackLabel(track) + ": \"" + cur.name +
                                "\" (event " +
                                std::to_string(cur.eventIndex) +
                                ") starts inside \"" + prev.name + "\"");
                }
                continue;
            }
            // Elsewhere spans must nest or be disjoint (stack shape).
            std::vector<std::uint64_t> open;
            for (const Span &s : spans) {
                while (!open.empty() && open.back() <= s.ts)
                    open.pop_back();
                if (!open.empty() && s.ts + s.dur > open.back())
                    add("span-nesting",
                        trackLabel(track) + ": \"" + s.name + "\" (event " +
                            std::to_string(s.eventIndex) +
                            ") partially overlaps an enclosing span");
                open.push_back(s.ts + s.dur);
            }
        }
    }

    void
    checkPhaseOrder()
    {
        // Collect resource-track spans per transaction id.
        struct Phase
        {
            std::uint64_t ts;
            int stage;
            std::string name;
        };
        std::map<long long, std::vector<Phase>> byTx;
        for (const auto &[track, spans] : spans_) {
            if (!resourceTrack(track.first))
                continue;
            for (const Span &s : spans) {
                const int stage = stageOf(s.name);
                if (stage < 0) {
                    add("phase-order",
                        trackLabel(track) + ": unknown phase name \"" +
                            s.name + "\" (event " +
                            std::to_string(s.eventIndex) + ")");
                    continue;
                }
                if (s.tx >= 0)
                    byTx[s.tx].push_back({s.ts, stage, s.name});
            }
        }
        for (auto &[tx, phases] : byTx) {
            std::sort(phases.begin(), phases.end(),
                      [](const Phase &a, const Phase &b) {
                          if (a.ts != b.ts)
                              return a.ts < b.ts;
                          return a.stage < b.stage;
                      });
            for (std::size_t i = 1; i < phases.size(); ++i) {
                if (phases[i].stage < phases[i - 1].stage) {
                    add("phase-order",
                        "tx " + std::to_string(tx) + ": phase \"" +
                            phases[i].name + "\" after \"" +
                            phases[i - 1].name +
                            "\" violates xfer_in -> array -> xfer_out "
                            "order");
                    break;
                }
            }
        }
    }

    void
    checkFlowLinkage()
    {
        // Span starts on resource tracks, the only legal step anchors.
        std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
            anchors;
        for (const auto &[track, spans] : spans_) {
            if (!resourceTrack(track.first))
                continue;
            for (const Span &s : spans)
                anchors.insert({track.first, track.second, s.ts});
        }
        for (const auto &[key, f] : flows_) {
            if (f.starts != 1 || f.finishes != 1) {
                add("flow-linkage",
                    "flow " + key + ": " + std::to_string(f.starts) +
                        " start(s), " + std::to_string(f.finishes) +
                        " finish(es); want exactly one of each");
                continue;
            }
            if (f.startName != f.finishName)
                add("flow-linkage", "flow " + key + ": start name \"" +
                                        f.startName + "\" != finish name \"" +
                                        f.finishName + "\"");
            if (f.finishTs < f.startTs)
                add("flow-linkage",
                    "flow " + key + ": finishes before it starts");
            for (const FlowStep &st : f.steps) {
                if (st.name != f.startName)
                    add("flow-linkage",
                        "flow " + key + ": step name \"" + st.name +
                            "\" (event " + std::to_string(st.eventIndex) +
                            ") differs from flow name \"" + f.startName +
                            "\"");
                if (st.ts < f.startTs || st.ts > f.finishTs)
                    add("flow-linkage",
                        "flow " + key + ": step at event " +
                            std::to_string(st.eventIndex) +
                            " lies outside [start, finish]");
                if (!resourceTrack(st.pid)) {
                    add("flow-linkage",
                        "flow " + key + ": step at event " +
                            std::to_string(st.eventIndex) +
                            " is not on a resource track");
                } else if (!anchors.count({st.pid, st.tid, st.ts})) {
                    add("flow-linkage",
                        "flow " + key + ": step at event " +
                            std::to_string(st.eventIndex) +
                            " does not coincide with the start of a span "
                            "on its track");
                }
            }
            ++result_.stats.flows;
            result_.stats.flowSteps += f.steps.size();
        }
    }

    struct AsyncPair
    {
        int begins = 0;
        int ends = 0;
        std::uint64_t beginTs = 0;
        std::uint64_t endTs = 0;
        std::string beginName;
        std::string endName;
    };

    struct FlowStep
    {
        std::uint64_t ts = 0;
        std::uint64_t pid = 0;
        std::uint64_t tid = 0;
        std::size_t eventIndex = 0;
        std::string name;
    };

    struct Flow
    {
        int starts = 0;
        int finishes = 0;
        std::uint64_t startTs = 0;
        std::uint64_t finishTs = 0;
        std::string startName;
        std::string finishName;
        std::vector<FlowStep> steps;
    };

    CheckResult result_;
    std::map<std::uint64_t, std::string> processNames_;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::string>
        threadNames_;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Span>>
        spans_;
    std::map<std::string, AsyncPair> asyncs_;
    std::map<std::string, Flow> flows_;
};

} // namespace

CheckResult
checkTrace(const std::string &json)
{
    return TraceChecker().run(json);
}

std::string
toJson(const CheckResult &r)
{
    auto escape = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    };
    std::ostringstream os;
    os << "{\n  \"tool\": \"parabit-trace\",\n  \"ok\": "
       << (r.ok() ? "true" : "false") << ",\n  \"stats\": {\"events\": "
       << r.stats.events << ", \"spans\": " << r.stats.spans
       << ", \"asyncPairs\": " << r.stats.asyncPairs
       << ", \"flows\": " << r.stats.flows
       << ", \"flowSteps\": " << r.stats.flowSteps
       << ", \"tracks\": " << r.stats.tracks
       << ", \"processes\": " << r.stats.processes
       << "},\n  \"findings\": [";
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
        const Finding &f = r.findings[i];
        os << (i ? "," : "") << "\n    {\"check\": \"" << escape(f.check)
           << "\", \"message\": \"" << escape(f.message) << "\"}";
    }
    os << (r.findings.empty() ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

} // namespace parabit::tracecheck
