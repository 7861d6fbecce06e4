/**
 * @file
 * One flash block: a stack of wordlines, each holding an LSB and an MSB
 * logical page over the same MLC cells.
 *
 * Blocks track page lifecycle (free -> valid -> invalid -> erased back to
 * free) and the block erase count used by the wear-leveling and endurance
 * models.  Page payloads are optional: a block built with
 * store_data = false keeps full state/timing behaviour while holding no
 * bits, which is what the large-scale experiments use.
 *
 * A stored page is a Payload: immutable bits shared by reference with
 * every copy of the page (reads, ReAlloc pairs, LocFree staging, GC and
 * refresh moves, pair backups, PLP entries).  Invalidate, erase and a
 * torn wordline drop only this block's reference.
 */

#ifndef PARABIT_FLASH_BLOCK_HPP_
#define PARABIT_FLASH_BLOCK_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"
#include "common/units.hpp"
#include "flash/latch_array.hpp"

namespace parabit::flash {

/**
 * A programmed page's bits, immutable and shared by every holder; null
 * means no bits (timing-only arrays, a torn page, or a page programmed
 * without bits).
 */
using Payload = std::shared_ptr<const BitVector>;

/** Wrap @p bits as a payload; moving them in copies nothing. */
inline Payload
makePayload(BitVector bits)
{
    return std::make_shared<const BitVector>(std::move(bits));
}

/** Lifecycle state of one logical page. */
enum class PageState : std::uint8_t { kFree = 0, kValid, kInvalid };

/**
 * Per-page out-of-band (spare-area) metadata, written atomically with the
 * page payload by every program.  The FTL uses it for sudden-power-off
 * recovery: @p lpn + @p seq drive sequence-number arbitration during the
 * OOB scan, @p tag records why the page was written (host data, GC copy,
 * ParaBit pair/LSB-only/chained-MSB, pair backup, checkpoint/journal), and
 * @p scrambled whether the payload went through the scrambler.
 *
 * OOB survives invalidate() (stale copies lose arbitration by sequence
 * number, they are not physically wiped) and is cleared by erase().
 */
struct PageOob
{
    std::uint64_t lpn = 0;
    std::uint64_t seq = 0;
    std::uint8_t tag = 0;
    bool scrambled = false;
};

/** A flash block; see file comment. */
class Block
{
  public:
    /**
     * @param wordlines number of wordlines
     * @param page_bits bits per logical page
     * @param store_data whether pages carry payloads
     */
    Block(std::uint32_t wordlines, std::size_t page_bits, bool store_data);

    std::uint32_t wordlines() const { return static_cast<std::uint32_t>(wls_.size()); }
    std::size_t pageBits() const { return pageBits_; }
    bool storesData() const { return storeData_; }

    PageState pageState(std::uint32_t wl, bool msb) const;

    /**
     * Program one logical page (must currently be free) by keeping a
     * reference to @p data.  @p data may be null in timing-only mode or
     * when the payload is irrelevant; a functional block checks its
     * width against the page in every build.  @p oob attaches
     * spare-area metadata to the page (may be null).
     */
    void program(std::uint32_t wl, bool msb, const Payload &data,
                 const PageOob *oob = nullptr);

    /** Mark a valid page invalid (FTL overwrite / trim). */
    void invalidate(std::uint32_t wl, bool msb);

    /** Erase the whole block: all pages free, erase count +1. */
    void erase();

    /** Stored payload, null if absent. */
    const Payload &pageData(std::uint32_t wl, bool msb) const;

    /** Spare-area metadata attached at program time, or nullptr. */
    const PageOob *pageOob(std::uint32_t wl, bool msb) const;

    /**
     * Record that a program on this wordline was interrupted by power
     * loss.  Per the MLC shared-wordline hazard the cells of *both*
     * coupled pages are left in indeterminate states, so both payloads
     * are dropped.  Page lifecycle states and OOB are kept — recovery
     * discards the whole wordline regardless.  erase() clears the mark.
     */
    void markTorn(std::uint32_t wl);

    /** Whether a program on this wordline was torn by power loss. */
    bool torn(std::uint32_t wl) const;

    /** @name Media-wear tracking (read disturb + retention).
     *
     * Disturb counts model the pass-through voltage stress a sensing
     * puts on the *neighboring* wordlines of its block; retention age is
     * measured from the wordline's last program.  Both live with the
     * OOB/state metadata (physical charge state, so they survive
     * invalidate() and power loss) and are cleared by erase().
     */
    /// @{

    /** Absorb @p senses disturb units into wordline @p wl. */
    void chargeDisturb(std::uint32_t wl, std::uint64_t senses);

    /** Accumulated disturb senses since the last erase. */
    std::uint64_t disturbCount(std::uint32_t wl) const;

    /** Stamp the last-program time (device tick) of wordline @p wl. */
    void setProgramTick(std::uint32_t wl, Tick now);

    /** Last-program tick (0 = never stamped since erase). */
    Tick programTick(std::uint32_t wl) const;
    /// @}

    /** Both pages of a wordline, as the latch model consumes them. */
    WordlineData wordlineData(std::uint32_t wl) const;

    std::uint32_t eraseCount() const { return eraseCount_; }
    std::uint32_t validPages() const { return validPages_; }
    std::uint32_t freePages() const;

  private:
    struct Wordline
    {
        Payload lsbData;
        Payload msbData;
        std::optional<PageOob> lsbOob;
        std::optional<PageOob> msbOob;
        PageState lsbState = PageState::kFree;
        PageState msbState = PageState::kFree;
        bool torn = false;
        /** Neighbor-sense disturb units absorbed since erase. */
        std::uint64_t disturb = 0;
        /** Device tick of the last program on this wordline. */
        Tick programmedAt = 0;
    };

    Wordline &wl(std::uint32_t i);
    const Wordline &wl(std::uint32_t i) const;

    std::size_t pageBits_;
    bool storeData_;
    std::vector<Wordline> wls_;
    std::uint32_t eraseCount_ = 0;
    std::uint32_t validPages_ = 0;
};

} // namespace parabit::flash

#endif // PARABIT_FLASH_BLOCK_HPP_
