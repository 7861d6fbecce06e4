/**
 * @file
 * A NAND flash chip: dies of planes, with the functional command set the
 * SSD controller drives — page read/program, block erase, and the two
 * ParaBit operation modes.
 *
 * The chip is purely functional; all timing is computed by the SSD layer
 * from FlashTiming plus the MicroProgram step counts, so the same chip
 * model backs both the event-driven simulator and the closed-form cost
 * model.
 */

#ifndef PARABIT_FLASH_CHIP_HPP_
#define PARABIT_FLASH_CHIP_HPP_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "flash/error_model.hpp"
#include "flash/geometry.hpp"
#include "flash/plane.hpp"
#include "flash/timing.hpp"

namespace parabit::flash {

/** Page address within one chip. */
struct ChipPageAddr
{
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::uint32_t block = 0;
    std::uint32_t wordline = 0;
    bool msb = false;

    bool operator==(const ChipPageAddr &) const = default;
};

/**
 * Fault hooks a reliability layer (ssd::FaultInjector) can install on a
 * chip.  All hooks are optional; an empty hook means "no fault".  The
 * per-plane fault state (dead planes, stuck bitlines) lives on the Plane
 * itself; these hooks cover the per-operation decisions that need the
 * injector's schedule.
 */
struct ChipFaultHooks
{
    /** Multiplier applied to the RBER of every sensing of this page's
     *  wordline (elevated-RBER regions). */
    std::function<double(const ChipPageAddr &)> rberMultiplier;
    /** Whether this page program fails (consumed from the schedule). */
    std::function<bool(const ChipPageAddr &)> programFails;
    /** Whether this block erase fails (consumed from the schedule). */
    std::function<bool(const ChipPageAddr &)> eraseFails;
    /** Multiplier on the disturb units a sensing charges to this page's
     *  neighbors (kReadDisturbHot regions accumulate stress faster). */
    std::function<double(const ChipPageAddr &)> disturbMultiplier;
    /** Multiplier on the retention age of this page's wordline
     *  (kRetentionLoss regions leak charge faster). */
    std::function<double(const ChipPageAddr &)> retentionMultiplier;
};

/** One flash chip; see file comment. */
class Chip
{
  public:
    /**
     * @param geom device geometry (chip uses the per-chip fields)
     * @param store_data whether pages carry payloads
     * @param error_cfg sensing-error model configuration
     * @param seed RNG seed for error injection
     */
    Chip(const FlashGeometry &geom, bool store_data,
         const ErrorModelConfig &error_cfg = ErrorModelConfig::ideal(),
         std::uint64_t seed = 1);

    const FlashGeometry &geometry() const { return geom_; }

    Plane &plane(std::uint32_t die, std::uint32_t plane_idx);
    const Plane &plane(std::uint32_t die, std::uint32_t plane_idx) const;

    /** Install reliability fault hooks (see ChipFaultHooks). */
    void setFaultHooks(ChipFaultHooks hooks) { faults_ = std::move(hooks); }

    /** @name Media wear (read disturb + retention).
     *
     * The chip keeps a simulated-time cursor the device layer advances
     * with its booking clock; programs stamp it into the wordline and
     * sensings evaluate retention age against it.  Every sensing also
     * charges disturb units to the sensed wordline's block neighbors
     * (ParaBit chains charge per-SRO).  Tracking is always on — it is
     * free — but it only changes sensing outcomes when the error model's
     * disturb/retention factors are nonzero.
     */
    /// @{

    /** Advance the chip's simulated-time cursor (monotonic). */
    void
    setNow(Tick now)
    {
        if (now > now_)
            now_ = now;
    }

    Tick now() const { return now_; }

    /** Accumulated disturb units of @p a's wordline. */
    std::uint64_t wordlineDisturb(const ChipPageAddr &a);

    /** Hours since @p a's wordline was last programmed, scaled by any
     *  injected retention-loss acceleration. */
    double wordlineAgeHours(const ChipPageAddr &a);

    /**
     * Predicted raw per-sensing RBER of @p a's wordline: the P/E-count
     * base rate times the disturb/retention wear multiplier times any
     * injected elevated-RBER multiplier.  This is what the patrol
     * scrubber compares against its refresh threshold.
     */
    double predictedRber(const ChipPageAddr &a);
    /// @}

    /** Whether the plane holding @p die/@p plane_idx accepts operations
     *  (false once a dead-plane/dead-chip fault was injected). */
    bool
    planeOperational(std::uint32_t die, std::uint32_t plane_idx) const
    {
        return !plane(die, plane_idx).dead();
    }

    /** @name Functional command set. */
    /// @{

    /**
     * Program a free page; the page keeps a reference to @p data, which
     * may be null in timing-only mode.  @p oob attaches spare-area
     * metadata (may be null).
     * @return false on a program failure (injected fault or dead
     *         plane); the page stays free and the caller (FTL) must
     *         retire the block and remap.
     */
    bool programPage(const ChipPageAddr &a, const Payload &data,
                     const PageOob *oob = nullptr);

    /**
     * Read a valid page through the normal (ECC-protected) path: the
     * page's own payload, shared, not copied.  The data is error-free
     * per paper Section 5.8 (ECC corrects normal reads).  A timing-only
     * array (store_data = false) returns null; a functional page
     * without stored payload (torn wordline, or programmed without
     * bits) reads as the chip's one all-ones payload.
     */
    Payload readPage(const ChipPageAddr &a);

    /**
     * Erase a block.  @return false on an erase failure (injected fault
     * or dead plane); the block keeps its contents and the caller must
     * retire it.
     */
    bool eraseBlock(std::uint32_t die, std::uint32_t plane_idx,
                    std::uint32_t block);

    /**
     * Execute a co-located ParaBit operation on the wordline of @p a:
     * the LSB page is operand X and the MSB page operand Y.  Sensing
     * errors are injected per the chip's error model at the block's P/E
     * count (ParaBit results bypass ECC).
     * @param bit_errors if non-null, receives the number of injected SO
     *        flips that survived into the output.
     */
    BitVector opCoLocated(BitwiseOp op, const ChipPageAddr &a,
                          int *bit_errors = nullptr);

    /**
     * Execute a location-free ParaBit operation: operand M lives on the
     * wordline at @p m (MSB page in the kMsbLsb variant, LSB page in
     * kLsbLsb), operand N on the wordline at @p n (always the LSB page).
     * Both must share the chip/die/plane (same bitlines); violating that
     * is a caller bug.
     */
    BitVector opLocationFree(BitwiseOp op, const ChipPageAddr &m,
                             const ChipPageAddr &n, int *bit_errors = nullptr,
                             LocFreeVariant variant = LocFreeVariant::kMsbLsb);

    /**
     * Execute a location-free operation whose M operand is a buffered
     * intermediate result re-loaded into the latch through the data-load
     * path (paper Section 4.2's chained-operation handling): only the N
     * operand is sensed from cells, so no flash page is programmed.
     * Uses the LSB/LSB program variant with the buffer standing in for
     * M's page.
     */
    BitVector opBufferedOperand(BitwiseOp op, const BitVector &m_buffer,
                                const ChipPageAddr &n,
                                int *bit_errors = nullptr);
    /// @}

    PageState pageState(const ChipPageAddr &a);
    std::uint32_t blockEraseCount(std::uint32_t die, std::uint32_t plane_idx,
                                  std::uint32_t block);

    /** Spare-area metadata of the page at @p a, or nullptr. */
    const PageOob *pageOob(const ChipPageAddr &a);

    /** Mark the wordline of @p a torn by an interrupted program
     *  (sudden power loss mid-tPROG); see Block::markTorn. */
    void markTornWordline(const ChipPageAddr &a);

    /** Whether the wordline of @p a carries a torn-program mark. */
    bool wordlineTorn(const ChipPageAddr &a);

    const ErrorModel &errorModel() const { return errorModel_; }

  private:
    Block &blockAt(const ChipPageAddr &a);

    /**
     * Execute @p prog with the error model and any plane-level faults
     * applied to every sensing; @p sense_addr locates the plane whose
     * latch column runs the program (and the wordline whose region may
     * carry an elevated-RBER fault).  @p wear_mult is the caller's
     * disturb/retention multiplier for the sensed wordline(s).
     */
    BitVector runOp(const MicroProgram &prog, const ChipPageAddr &sense_addr,
                    const WordlineData &self, const WordlineData &wl_m,
                    const WordlineData &wl_n, std::uint32_t pe_cycles,
                    int *bit_errors, double wear_mult = 1.0);

    /** Charge @p senses disturb units (scaled by any injected hot-spot
     *  multiplier) to the block neighbors of @p a's wordline. */
    void chargeNeighborDisturb(const ChipPageAddr &a, int senses);

    /** Disturb/retention multiplier of @p a's wordline (1.0 while wear
     *  tracking is disabled in the error model). */
    double wearMultiplierAt(const ChipPageAddr &a);

    FlashGeometry geom_;
    ErrorModel errorModel_;
    Rng rng_;
    ChipFaultHooks faults_;
    std::vector<Plane> planes_; ///< dies x planes, row-major
    Tick now_ = 0; ///< simulated-time cursor (see setNow)
    /** What a functional page without stored bits reads as (all-ones,
     *  the erased level); built on first use. */
    Payload erasedPage_;
};

} // namespace parabit::flash

#endif // PARABIT_FLASH_CHIP_HPP_
