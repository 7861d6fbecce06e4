#include "obs/trace.hpp"

#include <fstream>
#include <memory>

#include "obs/profiler.hpp"

namespace parabit::obs {

namespace {

std::unique_ptr<TraceSink> g_sink;

/** Escape @p s into @p out as JSON string content. */
void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
}

/**
 * Render Tick @p t (picoseconds) as Chrome microseconds with three
 * decimals, via pure integer arithmetic (sub-nanosecond residue is
 * truncated): 2500000 ps -> "2.500".
 */
void
appendTicksAsUs(std::string &out, Tick t)
{
    const std::uint64_t ns = t / 1000;
    out += std::to_string(ns / 1000);
    const std::uint64_t frac = ns % 1000;
    if (frac) {
        out += '.';
        out += static_cast<char>('0' + frac / 100);
        out += static_cast<char>('0' + (frac / 10) % 10);
        out += static_cast<char>('0' + frac % 10);
    }
}

} // namespace

TraceSink *
TraceSink::global()
{
    return g_sink.get();
}

TraceSink &
TraceSink::enableGlobal()
{
    if (!g_sink)
        g_sink = std::make_unique<TraceSink>();
    return *g_sink;
}

void
TraceSink::disableGlobal()
{
    g_sink.reset();
}

TrackId
TraceSink::track(const std::string &process, const std::string &thread)
{
    auto [pit, pnew] =
        pids_.try_emplace(process,
                          static_cast<std::uint32_t>(pids_.size() + 1));
    const std::uint32_t pid = pit->second;
    if (pnew) {
        Event e;
        e.kind = Kind::kMeta;
        e.pid = pid;
        e.tid = 0;
        e.name = "process_name";
        e.args.push_back({"name", process, true});
        events_.push_back(std::move(e));
    }
    auto [tit, tnew] =
        tids_.try_emplace(std::make_pair(pid, thread),
                          static_cast<std::uint32_t>(tids_.size() + 1));
    const std::uint32_t tid = tit->second;
    if (tnew) {
        Event e;
        e.kind = Kind::kMeta;
        e.pid = pid;
        e.tid = tid;
        e.name = "thread_name";
        e.args.push_back({"name", thread, true});
        events_.push_back(std::move(e));
    }
    return {pid, tid};
}

void
TraceSink::span(TrackId t, const std::string &name, Tick start, Tick end,
                std::vector<Arg> args)
{
    PROFILE_SCOPE(Subsystem::kObs);
    Event e;
    e.kind = Kind::kComplete;
    e.pid = t.pid;
    e.tid = t.tid;
    e.ts = start;
    e.dur = end > start ? end - start : 0;
    e.name = name;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceSink::asyncBegin(TrackId t, const std::string &cat,
                      const std::string &name, std::uint64_t id, Tick at,
                      std::vector<Arg> args)
{
    PROFILE_SCOPE(Subsystem::kObs);
    Event e;
    e.kind = Kind::kAsyncBegin;
    e.pid = t.pid;
    e.tid = t.tid;
    e.ts = at;
    e.id = id;
    e.name = name;
    e.cat = cat;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceSink::asyncEnd(TrackId t, const std::string &cat,
                    const std::string &name, std::uint64_t id, Tick at)
{
    PROFILE_SCOPE(Subsystem::kObs);
    Event e;
    e.kind = Kind::kAsyncEnd;
    e.pid = t.pid;
    e.tid = t.tid;
    e.ts = at;
    e.id = id;
    e.name = name;
    e.cat = cat;
    events_.push_back(std::move(e));
}

void
TraceSink::flowEvent(Kind kind, TrackId t, const std::string &cat,
                     const std::string &name, std::uint64_t id, Tick at)
{
    PROFILE_SCOPE(Subsystem::kObs);
    Event e;
    e.kind = kind;
    e.pid = t.pid;
    e.tid = t.tid;
    e.ts = at;
    e.id = id;
    e.name = name;
    e.cat = cat;
    events_.push_back(std::move(e));
}

void
TraceSink::flowStart(TrackId t, const std::string &cat,
                     const std::string &name, std::uint64_t id, Tick at)
{
    flowEvent(Kind::kFlowStart, t, cat, name, id, at);
}

void
TraceSink::flowStep(TrackId t, const std::string &cat,
                    const std::string &name, std::uint64_t id, Tick at)
{
    flowEvent(Kind::kFlowStep, t, cat, name, id, at);
}

void
TraceSink::flowEnd(TrackId t, const std::string &cat,
                   const std::string &name, std::uint64_t id, Tick at)
{
    flowEvent(Kind::kFlowEnd, t, cat, name, id, at);
}

void
TraceSink::appendEvent(std::string &out, const Event &e) const
{
    out += "{\"ph\":\"";
    switch (e.kind) {
      case Kind::kMeta:
        out += 'M';
        break;
      case Kind::kComplete:
        out += 'X';
        break;
      case Kind::kAsyncBegin:
        out += 'b';
        break;
      case Kind::kAsyncEnd:
        out += 'e';
        break;
      case Kind::kFlowStart:
        out += 's';
        break;
      case Kind::kFlowStep:
        out += 't';
        break;
      case Kind::kFlowEnd:
        out += 'f';
        break;
    }
    out += "\",\"pid\":";
    out += std::to_string(e.pid);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    if (e.kind != Kind::kMeta) {
        out += ",\"ts\":";
        appendTicksAsUs(out, e.ts);
    }
    if (e.kind == Kind::kComplete) {
        out += ",\"dur\":";
        appendTicksAsUs(out, e.dur);
    }
    if (e.kind == Kind::kAsyncBegin || e.kind == Kind::kAsyncEnd ||
        e.kind == Kind::kFlowStart || e.kind == Kind::kFlowStep ||
        e.kind == Kind::kFlowEnd) {
        out += ",\"cat\":\"";
        appendEscaped(out, e.cat);
        out += "\",\"id\":\"";
        out += std::to_string(e.id);
        out += '"';
    }
    if (!e.name.empty()) {
        out += ",\"name\":\"";
        appendEscaped(out, e.name);
        out += '"';
    }
    if (!e.args.empty()) {
        out += ",\"args\":{";
        for (std::size_t i = 0; i < e.args.size(); ++i) {
            const Arg &a = e.args[i];
            if (i)
                out += ',';
            out += '"';
            appendEscaped(out, a.key);
            out += "\":";
            if (a.quoted) {
                out += '"';
                appendEscaped(out, a.value);
                out += '"';
            } else {
                out += a.value;
            }
        }
        out += '}';
    }
    out += '}';
}

std::string
TraceSink::toJson() const
{
    PROFILE_SCOPE(Subsystem::kObs);
    std::string out = "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (i)
            out += ",\n";
        appendEvent(out, events_[i]);
    }
    out += "\n]}\n";
    return out;
}

bool
TraceSink::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << toJson();
    return static_cast<bool>(out);
}

void
TraceSink::clear()
{
    pids_.clear();
    tids_.clear();
    events_.clear();
}

} // namespace parabit::obs
