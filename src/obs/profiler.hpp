/**
 * @file
 * Self-profiler: wall-clock attribution of host CPU time to simulator
 * subsystems, for the bench_simspeed perf-regression harness.
 *
 * PROFILE_SCOPE(subsystem) marks a region; the profiler keeps a scope
 * stack and charges *self time* — the time between stamps, credited to
 * whichever subsystem is on top — so nested scopes never double-count
 * (an event-engine callback that runs scheduler code charges the
 * scheduler, not the engine, for that stretch).  The clock is read only
 * where the top changes: a scope nested in one of its own subsystem
 * counts an entry and takes no stamp.
 *
 * Disabled by default (the global() handle is null), in which case a
 * PROFILE_SCOPE costs one load and branch and reads no clock at all —
 * simulator sources stay free of wall-clock time, which the
 * parabit-lint nondeterminism rule enforces.  The only translation
 * unit that reads std::chrono::steady_clock is profiler.cpp, the
 * lint-sanctioned exception: profiling measures the *simulator*, never
 * the simulated device, so its timestamps cannot leak into device
 * state or trace output.  Everything here is host-side measurement;
 * enabling it perturbs nothing the logical clock sees.
 */

#ifndef PARABIT_OBS_PROFILER_HPP_
#define PARABIT_OBS_PROFILER_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace parabit::obs {

/** Attribution buckets for self-time; kOther absorbs unmarked code. */
enum class Subsystem : std::uint8_t
{
    kEngine = 0, ///< event-engine dispatch (ssd/event_engine.cpp)
    kSched,      ///< transaction scheduler (ssd/sched/)
    kFlashArray, ///< functional flash array (flash/chip.cpp)
    kFtl,        ///< address translation, GC, recovery (ssd/ftl.cpp)
    kObs,        ///< metrics/trace/snapshot emission (obs/)
    kOther,      ///< everything outside a PROFILE_SCOPE
};

inline constexpr std::size_t kNumSubsystems = 6;

const char *subsystemName(Subsystem s);

/** See file comment. */
class Profiler
{
  public:
    /** Accumulated self-time per subsystem, in seconds of wall time. */
    struct Totals
    {
        std::array<double, kNumSubsystems> seconds{};
        std::array<std::uint64_t, kNumSubsystems> entries{};

        double
        totalSeconds() const
        {
            double t = 0.0;
            for (double s : seconds)
                t += s;
            return t;
        }
    };

    /** The process-wide profiler, or nullptr while profiling is off
     *  (inline, so a disabled scope reads one pointer). */
    static Profiler *global() { return active_; }
    static Profiler &enableGlobal();
    static void disableGlobal();

    /** Push @p s, charging the elapsed stretch to the previous top. */
    void enter(Subsystem s);

    /** Pop the current scope, charging its trailing stretch. */
    void leave();

    /** Charge the open stretch to the current top and read totals. */
    Totals totals();

    void reset();

  private:
    /** global()'s answer; profiler.cpp owns the instance. */
    static Profiler *active_;

    Totals totals_;
    std::vector<Subsystem> stack_;
    double lastStamp_ = 0.0;
    bool stamped_ = false;

    /** The subsystem @p below entries under the top of the stack
     *  (kOther past its bottom). */
    Subsystem top(std::size_t below = 0) const;
    void charge(double now);
};

/** RAII marker; no-op (one branch) while the profiler is disabled. */
class ProfileScope
{
  public:
    explicit ProfileScope(Subsystem s) : p_(Profiler::global())
    {
        if (p_ != nullptr)
            p_->enter(s);
    }
    ~ProfileScope()
    {
        if (p_ != nullptr)
            p_->leave();
    }
    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    Profiler *p_;
};

// Two-level expansion so __LINE__ stringifies into a unique name.
#define PARABIT_PROFILE_CONCAT2(a, b) a##b
#define PARABIT_PROFILE_CONCAT(a, b) PARABIT_PROFILE_CONCAT2(a, b)
#define PROFILE_SCOPE(subsystem)                                           \
    ::parabit::obs::ProfileScope PARABIT_PROFILE_CONCAT(                   \
        parabit_profile_scope_, __LINE__)(subsystem)

} // namespace parabit::obs

#endif // PARABIT_OBS_PROFILER_HPP_
