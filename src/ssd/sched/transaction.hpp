/**
 * @file
 * DeviceTransaction: the unit of work the transaction scheduler books.
 *
 * Every PhysOp — host/FTL flash operations and ParaBit sensing
 * sequences alike — becomes one transaction in a phase-decomposed form:
 *
 *   [channel xfer-in] -> [die/plane array] -> [channel xfer-out]
 *
 * Absent phases have zero duration.  The command/address overhead is a
 * die-side delay before the first phase; it books no resource.  The
 * scheduler books each phase on its resource: one array resource per
 * plane — the granularity the device exploits for plane-level
 * parallelism — and one per channel (scheduler.hpp).
 */

#ifndef PARABIT_SSD_SCHED_TRANSACTION_HPP_
#define PARABIT_SSD_SCHED_TRANSACTION_HPP_

#include <cstdint>

#include "common/units.hpp"
#include "flash/geometry.hpp"

namespace parabit::ssd::sched {

/** Traffic class, the unit the policies and latency stats reason in. */
enum class TxClass : std::uint8_t
{
    kRead = 0, ///< host/FTL page read (kPageRead)
    kProgram,  ///< page program (kPageProgram)
    kErase,    ///< block erase (kBlockErase)
    kParaBit,  ///< in-flash bitwise sensing sequence (kParaBitSense)
    kScrub,    ///< background patrol-scrub scan read (kScrubRead)
};

inline constexpr int kNumTxClasses = 5;

const char *txClassName(TxClass c);

/** Booking phases as they appear in the trace. */
enum class PhaseKind : std::uint8_t
{
    kXferIn = 0, ///< channel transfer toward the die
    kArray,      ///< die/plane array time (sense, program, erase)
    kXferOut,    ///< channel transfer toward the controller
    kSuspend,    ///< suspend-transition overhead on the die
    kResume,     ///< resume-transition overhead on the die
};

inline constexpr int kNumPhaseKinds = 5;

const char *phaseKindName(PhaseKind k);

/** One schedulable device operation; see file comment. */
struct DeviceTransaction
{
    TxClass cls = TxClass::kRead;
    /** Channel/chip/die/plane identify the two resources involved. */
    flash::PhysPageAddr addr{};
    /** Earliest start (submission time). */
    Tick readyAt = 0;
    /** Command/address overhead, a die-side delay before the first
     *  phase. */
    Tick cmdTicks = 0;
    Tick xferInTicks = 0;
    Tick arrayTicks = 0;
    Tick xferOutTicks = 0;
};

/** Whether the array phase of a @p c transaction accepts suspend
 *  commands.  Scrub scans are suspendable by construction: a patrol
 *  sensing holds no latch state a host read cares about, so the
 *  controller may abandon and re-issue it at any pulse boundary. */
inline bool
suspendable(TxClass c)
{
    return c == TxClass::kProgram || c == TxClass::kErase ||
           c == TxClass::kScrub;
}

/** A contiguous range of transaction ids [lo, hi) submitted together
 *  (e.g. every PhysOp of one host command, GC traffic included). */
struct TxGroup
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool empty() const { return hi <= lo; }
    std::uint64_t size() const { return hi - lo; }
};

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_TRANSACTION_HPP_
