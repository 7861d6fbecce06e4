#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace parabit::lint {

namespace {

namespace fs = std::filesystem;

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Replace comments and string/char literals with spaces, preserving
 * offsets and newlines, so token scans cannot match inside either.
 */
std::string
stripCommentsAndStrings(const std::string &src)
{
    std::string out = src;
    enum class St { kCode, kLineComment, kBlockComment, kString, kChar };
    St st = St::kCode;
    for (std::size_t i = 0; i < src.size(); ++i) {
        const char c = src[i];
        const char next = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (st) {
          case St::kCode:
            if (c == '/' && next == '/') {
                st = St::kLineComment;
                out[i] = ' ';
            } else if (c == '/' && next == '*') {
                st = St::kBlockComment;
                out[i] = ' ';
            } else if (c == '"') {
                st = St::kString;
            } else if (c == '\'') {
                st = St::kChar;
            }
            break;
          case St::kLineComment:
            if (c == '\n')
                st = St::kCode;
            else
                out[i] = ' ';
            break;
          case St::kBlockComment:
            if (c == '*' && next == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::kString:
            if (c == '\\') {
                out[i] = ' ';
                if (i + 1 < src.size() && next != '\n')
                    out[++i] = ' ';
            } else if (c == '"') {
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::kChar:
            if (c == '\\') {
                out[i] = ' ';
                if (i + 1 < src.size() && next != '\n')
                    out[++i] = ' ';
            } else if (c == '\'') {
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

int
lineOfOffset(const std::string &s, std::size_t off)
{
    return 1 + static_cast<int>(std::count(s.begin(), s.begin() +
                                           static_cast<std::ptrdiff_t>(off),
                                           '\n'));
}

std::string
lineText(const std::string &s, int line)
{
    std::istringstream is(s);
    std::string l;
    for (int i = 0; i < line && std::getline(is, l); ++i) {
    }
    return l;
}

bool
suppressed(const std::string &raw, int line, const std::string &rule)
{
    return lineText(raw, line).find("lint:allow(" + rule + ")") !=
           std::string::npos;
}

/** Find token @p tok as a whole word starting at or after @p from. */
std::size_t
findWord(const std::string &text, const std::string &tok, std::size_t from)
{
    for (std::size_t p = text.find(tok, from); p != std::string::npos;
         p = text.find(tok, p + 1)) {
        const bool left_ok = p == 0 || !isWordChar(text[p - 1]);
        const std::size_t end = p + tok.size();
        const bool right_ok = end >= text.size() || !isWordChar(text[end]);
        if (left_ok && right_ok)
            return p;
    }
    return std::string::npos;
}

class Linter
{
  public:
    Linter(const std::string &path, const std::string &content,
           const SourceInfo &info)
        : path_(path), raw_(content), code_(stripCommentsAndStrings(content)),
          info_(info),
          isHeader_(path.size() >= 4 &&
                    path.compare(path.size() - 4, 4, ".hpp") == 0)
    {
    }

    std::vector<Finding> run();

  private:
    void add(int line, const std::string &rule, const std::string &message)
    {
        if (!suppressed(raw_, line, rule))
            findings_.push_back({path_, line, rule, message});
    }

    void forEachWord(const std::string &tok, const std::string &rule,
                     const std::string &message)
    {
        for (std::size_t p = findWord(code_, tok, 0);
             p != std::string::npos; p = findWord(code_, tok, p + 1))
            add(lineOfOffset(code_, p), rule, message);
    }

    void checkDurations();
    void checkTimelineBooking();
    void checkMetricNames();
    void checkBoundedRetry();
    void checkRawStderr();
    void checkNewDelete();
    void checkEnumSwitchDefault();
    void checkNondeterminism();
    void checkIncludeGuard();
    void checkFirstInclude();
    void checkUsingNamespace();

    const std::string path_;
    const std::string raw_;
    const std::string code_;
    const SourceInfo info_;
    const bool isHeader_;
    std::vector<Finding> findings_;
};

void
Linter::checkDurations()
{
    if (info_.durationAllowed)
        return;
    // Construction only: ticks::fromXx(...) and the ticks::k...second
    // unit constants.  Conversions out (ticks::toXx) are fine.
    static const char *const ctors[] = {"fromNs", "fromUs", "fromMs",
                                        "fromSec", "kPicosecond",
                                        "kNanosecond", "kMicrosecond",
                                        "kMillisecond", "kSecond"};
    for (std::size_t p = code_.find("ticks::"); p != std::string::npos;
         p = code_.find("ticks::", p + 1)) {
        const std::size_t after = p + 7;
        for (const char *ctor : ctors) {
            const std::size_t len = std::string(ctor).size();
            if (code_.compare(after, len, ctor) == 0 &&
                (after + len >= code_.size() ||
                 !isWordChar(code_[after + len]))) {
                add(lineOfOffset(code_, p), "naked-duration",
                    "duration constructed outside common/units.hpp / "
                    "flash/timing.hpp; add a named constant there "
                    "instead of a literal here");
            }
        }
    }
}

void
Linter::checkTimelineBooking()
{
    if (info_.timelineAllowed)
        return;
    // Any mention of the Timeline type outside the scheduler subsystem
    // is a booking bypass waiting to happen: the scheduler's trace and
    // its per-booking exclusivity check only see reservations made
    // through TransactionScheduler::submit.
    forEachWord("Timeline", "timeline-booking",
                "direct Timeline use outside src/ssd/sched/; submit "
                "work through the TransactionScheduler so arbitration, "
                "tracing and the exclusivity check see it");
}

void
Linter::checkMetricNames()
{
    // MetricsRegistry handle names feed dashboards and snapshot diffs
    // that group by dotted prefix, so a literal name passed to
    // obs::Counter / obs::Gauge / obs::Hist must read
    // <subsystem>.<noun>[.<qualifier>[.<qualifier>]] in lowercase.
    static const char *const kinds[] = {"Counter", "Gauge", "Hist"};
    for (std::size_t p = code_.find("obs::"); p != std::string::npos;
         p = code_.find("obs::", p + 5)) {
        const std::size_t after = p + 5;
        std::size_t tok_end = 0;
        for (const char *kind : kinds) {
            const std::size_t len = std::string(kind).size();
            if (code_.compare(after, len, kind) == 0 &&
                (after + len >= code_.size() ||
                 !isWordChar(code_[after + len])))
                tok_end = after + len;
        }
        if (tok_end == 0)
            continue;
        // Accept both a named handle (obs::Counter foo_{"..."} / ("...")
        // and a temporary (obs::Counter{"..."}).  Anything else — a
        // vector element type, a reference parameter — has no literal
        // to check.
        std::size_t q = tok_end;
        while (q < code_.size() &&
               (isWordChar(code_[q]) ||
                std::isspace(static_cast<unsigned char>(code_[q]))))
            ++q;
        if (q >= code_.size() || (code_[q] != '{' && code_[q] != '('))
            continue;
        ++q;
        while (q < code_.size() &&
               std::isspace(static_cast<unsigned char>(code_[q])))
            ++q;
        if (q >= code_.size() || code_[q] != '"')
            continue;
        // The literal's contents were blanked by the stripper but the
        // quote characters survive; read the name from the raw text.
        const std::size_t close = code_.find('"', q + 1);
        if (close == std::string::npos)
            continue;
        const std::string name = raw_.substr(q + 1, close - q - 1);

        bool ok = !name.empty();
        int segments = 0;
        for (std::size_t i = 0; ok && i < name.size();) {
            std::size_t j = i;
            while (j < name.size() && name[j] != '.')
                ++j;
            ++segments;
            if (j == i ||
                !(name[i] >= 'a' && name[i] <= 'z')) {
                ok = false;
                break;
            }
            for (std::size_t k = i + 1; k < j; ++k) {
                const char c = name[k];
                if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_')) {
                    ok = false;
                    break;
                }
            }
            i = j + (j < name.size() ? 1 : 0);
            if (j == name.size())
                break;
            if (j == name.size() - 1)
                ok = false; // trailing dot
        }
        if (segments < 2 || segments > 4)
            ok = false;
        if (!ok)
            add(lineOfOffset(code_, p), "metric-name",
                "metric handle name \"" + name +
                    "\" must be 2-4 lowercase dotted segments "
                    "(<subsystem>.<noun>[.<qualifier>]), each matching "
                    "[a-z][a-z0-9_]*");
    }
}

void
Linter::checkBoundedRetry()
{
    // A loop that retries must say how often: its header has to name a
    // cap (kMaxProgramRetries, retry_.maxRequeues, budget...), because
    // a bare literal goes stale silently and an unbounded loop hangs
    // the device under a fault storm.  Range-for over a fixed table (a
    // retry ladder) is bounded by construction.
    static const char *const kLoops[] = {"for", "while"};
    static const char *const kFlavors[] = {"retry", "retri", "requeue",
                                           "attempt"};
    static const char *const kCaps[] = {"max", "cap", "budget", "limit",
                                        "bound"};
    for (const char *kw : kLoops) {
        for (std::size_t p = findWord(code_, kw, 0);
             p != std::string::npos; p = findWord(code_, kw, p + 1)) {
            const std::size_t open = code_.find_first_not_of(
                " \t\n", p + std::string(kw).size());
            if (open == std::string::npos || code_[open] != '(')
                continue;
            int depth = 0;
            std::size_t close = open;
            for (; close < code_.size(); ++close) {
                if (code_[close] == '(')
                    ++depth;
                else if (code_[close] == ')' && --depth == 0)
                    break;
            }
            if (close >= code_.size())
                continue;
            std::string header =
                code_.substr(open + 1, close - open - 1);
            std::transform(header.begin(), header.end(), header.begin(),
                           [](unsigned char c) {
                               return static_cast<char>(std::tolower(c));
                           });

            // Range-for: a top-level ':' that is not part of '::'.
            if (kw[0] == 'f') {
                bool range_for = false;
                for (std::size_t i = 0; i < header.size(); ++i) {
                    if (header[i] != ':')
                        continue;
                    if ((i + 1 < header.size() && header[i + 1] == ':') ||
                        (i > 0 && header[i - 1] == ':')) {
                        ++i;
                        continue;
                    }
                    range_for = true;
                    break;
                }
                if (range_for)
                    continue;
            }

            const bool retry_flavored = std::any_of(
                std::begin(kFlavors), std::end(kFlavors),
                [&](const char *t) {
                    return header.find(t) != std::string::npos;
                });
            if (!retry_flavored)
                continue;
            const bool capped = std::any_of(
                std::begin(kCaps), std::end(kCaps), [&](const char *t) {
                    return header.find(t) != std::string::npos;
                });
            if (!capped)
                add(lineOfOffset(code_, p), "bounded-retry",
                    "retry/requeue loop without a named cap; bound it "
                    "with a config- or constant-named budget (e.g. "
                    "kMaxProgramRetries, retry_.maxRequeues) so the "
                    "retry ceiling is visible and tunable");
        }
    }
}

void
Linter::checkRawStderr()
{
    if (info_.stderrAllowed)
        return;
    // stderr as a token catches fprintf(stderr, ...); cerr/clog catch
    // the iostream spellings.  String/comment mentions are stripped, so
    // documentation may say "stderr" freely.
    static const char *const streams[] = {"stderr", "cerr", "clog"};
    for (const char *s : streams)
        forEachWord(s, "raw-stderr",
                    "direct stderr write; route diagnostics through "
                    "common/logging.hpp so the log sink sees them");
}

void
Linter::checkNewDelete()
{
    forEachWord("new", "raw-new-delete",
                "raw new; use containers or std::make_unique");
    // "delete" as an expression only; "= delete" declarations are fine.
    for (std::size_t p = findWord(code_, "delete", 0);
         p != std::string::npos; p = findWord(code_, "delete", p + 1)) {
        std::size_t q = p;
        while (q > 0 &&
               std::isspace(static_cast<unsigned char>(code_[q - 1])))
            --q;
        if (q == 0 || code_[q - 1] != '=')
            add(lineOfOffset(code_, p), "raw-new-delete",
                "raw delete; use owning types instead");
    }
}

void
Linter::checkEnumSwitchDefault()
{
    for (std::size_t p = findWord(code_, "switch", 0);
         p != std::string::npos; p = findWord(code_, "switch", p + 1)) {
        // Locate the body: the '{' after the matching ')'.
        std::size_t i = code_.find('(', p);
        if (i == std::string::npos)
            continue;
        int depth = 0;
        for (; i < code_.size(); ++i) {
            if (code_[i] == '(')
                ++depth;
            else if (code_[i] == ')' && --depth == 0)
                break;
        }
        std::size_t body = code_.find('{', i);
        if (body == std::string::npos)
            continue;
        std::size_t end = body;
        depth = 0;
        for (; end < code_.size(); ++end) {
            if (code_[end] == '{')
                ++depth;
            else if (code_[end] == '}' && --depth == 0)
                break;
        }
        const std::string block = code_.substr(body, end - body);

        // Enum-class case labels look like "case Foo::kBar" (possibly
        // qualified further); a plain integer switch has none.
        bool enum_case = false;
        for (std::size_t c = findWord(block, "case", 0);
             c != std::string::npos && !enum_case;
             c = findWord(block, "case", c + 1)) {
            std::size_t q = c + 4;
            while (q < block.size() &&
                   (isWordChar(block[q]) || block[q] == ' ' ||
                    block[q] == ':'))
            {
                if (block[q] == ':' && q + 1 < block.size() &&
                    block[q + 1] == ':') {
                    enum_case = true;
                    break;
                }
                ++q;
            }
        }
        if (!enum_case)
            continue;

        for (std::size_t d = findWord(block, "default", 0);
             d != std::string::npos; d = findWord(block, "default", d + 1)) {
            std::size_t q = d + 7;
            while (q < block.size() &&
                   std::isspace(static_cast<unsigned char>(block[q])))
                ++q;
            if (q < block.size() && block[q] == ':') {
                add(lineOfOffset(code_, body + d), "enum-switch-default",
                    "default label in a switch over an enum class; "
                    "enumerate every value so -Wswitch flags additions");
            }
        }
    }
}

void
Linter::checkNondeterminism()
{
    struct Banned
    {
        const char *token;
        const char *why;
    };
    static const Banned banned[] = {
        {"srand", "seed the simulator RNG (common/rng.hpp) instead"},
        {"random_device", "nondeterministic entropy; use common/rng.hpp"},
    };
    // Wall-clock reads are banned only where reproducibility is at
    // stake: the simulator proper.  The self-profiler TU measures the
    // simulator itself and is the sanctioned home for them.
    static const Banned wallClock[] = {
        {"system_clock", "wall-clock time breaks byte-reproducibility; "
                         "profiling belongs in obs/profiler.cpp"},
        {"steady_clock", "wall-clock time breaks byte-reproducibility; "
                         "profiling belongs in obs/profiler.cpp"},
        {"high_resolution_clock",
         "wall-clock time breaks byte-reproducibility; "
         "profiling belongs in obs/profiler.cpp"},
    };
    for (const Banned &b : banned)
        forEachWord(b.token, "nondeterminism", b.why);
    if (!info_.wallClockAllowed) {
        for (const Banned &b : wallClock)
            forEachWord(b.token, "nondeterminism", b.why);
    }
    // std::rand specifically (plain rand() is caught via srand seeding
    // being required anyway, and matching bare "rand" would false-trip
    // on identifiers like operand extraction helpers).
    for (std::size_t p = code_.find("std::rand"); p != std::string::npos;
         p = code_.find("std::rand", p + 1)) {
        const std::size_t end = p + 9;
        if (end >= code_.size() || !isWordChar(code_[end]))
            add(lineOfOffset(code_, p), "nondeterminism",
                "std::rand; use common/rng.hpp");
    }
}

void
Linter::checkIncludeGuard()
{
    if (!isHeader_ || info_.guardPath.empty())
        return;
    std::string guard = "PARABIT_";
    for (char c : info_.guardPath) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    guard += '_';
    if (code_.find("#ifndef " + guard) == std::string::npos ||
        code_.find("#define " + guard) == std::string::npos) {
        add(1, "include-guard",
            "missing or non-canonical include guard; expected " + guard);
    }
}

void
Linter::checkFirstInclude()
{
    if (isHeader_ || !info_.hasMatchingHeader)
        return;
    const std::size_t p = code_.find("#include");
    if (p == std::string::npos)
        return;
    const std::size_t eol = code_.find('\n', p);
    // The include path itself was blanked by the string stripper, so
    // read it from the raw text at the same offsets.
    const std::string first =
        raw_.substr(p, (eol == std::string::npos ? raw_.size() : eol) - p);
    // Expected: the file's own header, either root-relative (src layout)
    // or plain basename (tools layout).
    const std::string stem = path_.substr(0, path_.size() - 4);
    const std::size_t slash = stem.rfind('/');
    const std::string base = slash == std::string::npos
                                 ? stem : stem.substr(slash + 1);
    if (first.find("\"" + stem + ".hpp\"") == std::string::npos &&
        first.find("\"" + base + ".hpp\"") == std::string::npos) {
        add(lineOfOffset(code_, p), "first-include",
            "first include must be this file's own header (keeps the "
            "header self-contained)");
    }
}

void
Linter::checkUsingNamespace()
{
    for (std::size_t p = findWord(code_, "using", 0);
         p != std::string::npos; p = findWord(code_, "using", p + 1)) {
        std::size_t q = p + 5;
        while (q < code_.size() &&
               std::isspace(static_cast<unsigned char>(code_[q])))
            ++q;
        if (code_.compare(q, 9, "namespace") != 0 ||
            (q + 9 < code_.size() && isWordChar(code_[q + 9])))
            continue;
        std::size_t n = q + 9;
        while (n < code_.size() &&
               std::isspace(static_cast<unsigned char>(code_[n])))
            ++n;
        const bool is_std = code_.compare(n, 3, "std") == 0 &&
                            (n + 3 >= code_.size() ||
                             !isWordChar(code_[n + 3]));
        if (is_std)
            add(lineOfOffset(code_, p), "using-namespace",
                "using namespace std is never allowed");
        else if (isHeader_)
            add(lineOfOffset(code_, p), "using-namespace",
                "using-namespace directive in a header leaks into every "
                "includer");
    }
}

std::vector<Finding>
Linter::run()
{
    checkDurations();
    checkTimelineBooking();
    checkMetricNames();
    checkBoundedRetry();
    checkRawStderr();
    checkNewDelete();
    checkEnumSwitchDefault();
    checkNondeterminism();
    checkIncludeGuard();
    checkFirstInclude();
    checkUsingNamespace();
    return std::move(findings_);
}

} // namespace

std::vector<Finding>
lintSource(const std::string &display_path, const std::string &content,
           const SourceInfo &info)
{
    return Linter(display_path, content, info).run();
}

std::vector<Finding>
lintTree(const std::string &root)
{
    std::vector<Finding> all;
    const fs::path rootp(root);
    const std::string base = rootp.filename().string();
    const bool prefix_base = base != "src";

    std::vector<fs::path> files;
    for (const auto &e : fs::recursive_directory_iterator(rootp)) {
        if (!e.is_regular_file())
            continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".hpp" || ext == ".cpp")
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());

    for (const auto &f : files) {
        std::ifstream in(f, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();

        const std::string rel = fs::relative(f, rootp).generic_string();
        SourceInfo info;
        info.guardPath = prefix_base ? base + "/" + rel : rel;
        info.durationAllowed =
            rel == "common/units.hpp" || rel == "flash/timing.hpp";
        info.stderrAllowed = prefix_base || rel == "common/logging.cpp";
        info.timelineAllowed = prefix_base ||
                               rel.rfind("ssd/sched/", 0) == 0 ||
                               rel == "ssd/timeline.hpp" ||
                               rel == "ssd/timeline.cpp";
        info.wallClockAllowed = prefix_base || rel == "obs/profiler.cpp";
        if (f.extension() == ".cpp") {
            fs::path header = f;
            header.replace_extension(".hpp");
            info.hasMatchingHeader = fs::exists(header);
        }
        auto findings = lintSource(rel, buf.str(), info);
        all.insert(all.end(), findings.begin(), findings.end());
    }
    return all;
}

std::string
toJson(const std::vector<Finding> &findings)
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
    os << "{\n  \"tool\": \"parabit-lint\",\n  \"ok\": "
       << (findings.empty() ? "true" : "false") << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? "," : "") << "\n    {\"file\": \"" << escape(f.file)
           << "\", \"line\": " << f.line << ", \"rule\": \""
           << escape(f.rule) << "\", \"message\": \"" << escape(f.message)
           << "\"}";
    }
    os << (findings.empty() ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

} // namespace parabit::lint
