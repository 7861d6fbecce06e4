#include "flash/latch_array.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/invariant.hpp"
#include "common/logging.hpp"

namespace parabit::flash {

namespace {

using Word = std::uint64_t;

/**
 * The stored bits a sensing can read, in truth-table index order: the
 * self wordline's LSB and MSB, M's LSB and MSB, N's LSB and MSB.
 */
constexpr std::size_t kInputs = 6;
constexpr std::size_t kTableEntries = std::size_t{1} << kInputs;

/** One word per input; bit l of input j is lane l's bit j. */
using Inputs = std::array<Word, kInputs>;

/** Lane l reads input j as bit j of l: 64 lanes enumerate every
 *  combination of the six inputs. */
constexpr Inputs kEnumerated = {
    0xAAAA'AAAA'AAAA'AAAA, 0xCCCC'CCCC'CCCC'CCCC, 0xF0F0'F0F0'F0F0'F0F0,
    0xFF00'FF00'FF00'FF00, 0xFFFF'0000'FFFF'0000, 0xFFFF'FFFF'0000'0000,
};

/** The pages behind the inputs (nullptr reads as all-ones). */
using InputPages = std::array<const BitVector *, kInputs>;

void
checkWidth(const WordlineData &wl, std::size_t width)
{
    for (const BitVector *page : {wl.lsb, wl.msb})
        PARABIT_CHECK(!page || page->size() == width,
                      "latch kernel: operand page width differs from the "
                      "result page");
}

/** SO of sensing @p st over 64 lanes, M7 inversion included. */
Word
senseLanes(const MicroStep &st, const Inputs &in)
{
    const std::size_t base = st.wl == WordlineSel::kOperandM   ? 2
                             : st.wl == WordlineSel::kOperandN ? 4
                                                               : 0;
    const Word lsb = in[base];
    const Word msb = in[base + 1];
    Word so = ~Word{0};
    // A kNone sensing is the VREAD0 L1 re-init: always "above".
    switch (st.wl == WordlineSel::kNone ? VRead::kVRead0 : st.vread) {
      case VRead::kVRead0:
        break;
      case VRead::kVRead1:
        so = ~(lsb & msb);
        break;
      case VRead::kVRead2:
        so = ~lsb;
        break;
      case VRead::kVRead3:
        so = ~lsb & msb;
        break;
    }
    return st.soInverted ? ~so : so;
}

/**
 * Run @p prog over 64 lanes and return OUT.  Only C and B are kept:
 * the latches regenerate A = ~C and OUT = ~B after every pulse.
 * @p perturb(k, so) applies sensing k's noise to its SO word, after the
 * M7 inversion and before the pulse.
 */
template <class Perturb>
Word
runLanes(const MicroProgram &prog, const Inputs &in, Perturb &&perturb)
{
    Word c = 0, b = ~Word{0};
    std::size_t sense = 0;
    for (const MicroStep &st : prog.steps) {
        switch (st.kind) {
          case MicroStep::Kind::kInitNormal:
            // C = 0 (A = 1); SET grounds OUT, so B = 1.
            c = 0;
            b = ~Word{0};
            break;
          case MicroStep::Kind::kInitInverted:
            // A = 0 (C = 1); L2 as in the normal case.
            c = ~Word{0};
            b = ~Word{0};
            break;
          case MicroStep::Kind::kSense: {
            Word so = senseLanes(st, in);
            perturb(sense++, so);
            if (st.pulse == LatchPulse::kM1)
                c &= ~so; // C <- C & ~SO
            else if (st.pulse == LatchPulse::kM2)
                c |= so; // A <- A & ~SO, i.e. C <- C | SO
            else
                panic("latch kernel: sense step cannot pulse M3");
            break;
          }
          case MicroStep::Kind::kTransfer:
            // B <- B & ~A, i.e. B & C.
            b &= c;
            break;
        }
    }
    return ~b;
}

/**
 * A bitline's result as a function of the inputs it depends on: the
 * pages of those inputs, and entry m (a 0 or all-ones word) for the
 * combination where input l reads bit l of m.
 */
struct Table
{
    std::array<const Word *, kInputs> in{};
    std::size_t inputs = 0;
    std::array<Word, kTableEntries> entry{};
};

/**
 * Run @p prog once over the 64 input combinations (an absent page reads
 * 1 in every lane) and keep the inputs the resulting truth table
 * depends on.
 */
Table
deriveTable(const MicroProgram &prog, const InputPages &pages)
{
    Inputs in = kEnumerated;
    for (std::size_t j = 0; j < kInputs; ++j)
        if (!pages[j])
            in[j] = ~Word{0};
    const Word truth = runLanes(prog, in, [](std::size_t, Word &) {});

    Table t;
    std::array<std::size_t, kInputs> which{};
    for (std::size_t j = 0; j < kInputs; ++j) {
        // Input j matters where a lane reading it as 0 differs from its
        // twin reading 1.
        const Word twins = truth ^ (truth >> (std::size_t{1} << j));
        if ((twins & ~kEnumerated[j]) == 0)
            continue;
        which[t.inputs] = j;
        t.in[t.inputs++] = pages[j]->words().data();
    }
    for (std::size_t m = 0; m < (std::size_t{1} << t.inputs); ++m) {
        std::size_t lane = 0;
        for (std::size_t l = 0; l < t.inputs; ++l)
            lane |= ((m >> l) & 1) << which[l];
        t.entry[m] = (truth >> lane) & 1 ? ~Word{0} : Word{0};
    }
    return t;
}

/**
 * Page words the table pass folds into a local buffer at once.  The
 * constant trip count and the buffer (which no page can alias) let GCC
 * vectorize the fold at -O2 as well as at -O3.
 */
constexpr std::size_t kChunk = 32;

/**
 * The result of word @p i: entries [0, 2^K) of @p e folded by inputs
 * x[K-1] down to x[0].  The lower half of the entries has input K-1 at
 * 0 and the upper half at 1; lo ^ (x & (lo ^ hi)) picks hi where x
 * reads 1.
 */
template <std::size_t K>
Word
fold(const Word *e, const Word *const *x, std::size_t i)
{
    if constexpr (K == 0) {
        return e[0];
    } else {
        const Word lo = fold<K - 1>(e, x, i);
        const Word hi = fold<K - 1>(e + (std::size_t{1} << (K - 1)), x, i);
        return lo ^ (x[K - 1][i] & (lo ^ hi));
    }
}

/** One pass over the page: the table, over its K inputs, applied to
 *  every word of @p out. */
template <std::size_t K>
void
applyTable(const Table &t, BitVector &out)
{
    // Local entries: stores into the page cannot alias them.
    std::array<Word, (std::size_t{1} << K)> e;
    std::copy_n(t.entry.begin(), e.size(), e.begin());
    Word *dst = out.words().data();
    const std::size_t words = out.words().size();
    std::array<const Word *, kInputs> src{};
    const auto inputsAt = [&](std::size_t first) {
        for (std::size_t l = 0; l < K; ++l)
            src[l] = t.in[l] + first;
    };
    std::size_t first = 0;
    for (; first + kChunk <= words; first += kChunk) {
        inputsAt(first);
        std::array<Word, kChunk> r;
        for (std::size_t i = 0; i < kChunk; ++i)
            r[i] = fold<K>(e.data(), src.data(), i);
        std::copy(r.begin(), r.end(), dst + first);
    }
    inputsAt(first);
    for (std::size_t i = 0; first + i < words; ++i)
        dst[first + i] = fold<K>(e.data(), src.data(), i);
}

void
applyTable(const Table &t, BitVector &out)
{
    switch (t.inputs) {
      case 0: return applyTable<0>(t, out);
      case 1: return applyTable<1>(t, out);
      case 2: return applyTable<2>(t, out);
      case 3: return applyTable<3>(t, out);
      case 4: return applyTable<4>(t, out);
      case 5: return applyTable<5>(t, out);
      default: return applyTable<6>(t, out);
    }
}

/** replayNoisy's buffers, kept between calls so a replay allocates
 *  nothing once they have grown to the noise it meets. */
struct ReplayScratch
{
    /** Open-addressed bitline -> lane map: the bitline in the high
     *  half of a slot, its lane + 1 in the low half; 0 is empty. */
    std::vector<std::uint64_t> slots;
    std::vector<std::uint32_t> lines;
    std::vector<Word> masks;
};

/** Bit @p i of @p page; a null page reads 1. */
bool
bitAt(const BitVector *page, std::size_t i)
{
    return !page || ((page->words()[i / 64] >> (i % 64)) & 1) != 0;
}

/**
 * Replay the bitlines @p noise names through the steps, 64 to a word,
 * with each sensing's flips and the stuck pins applied, and overwrite
 * their table results in @p out.  Returns how many results the noise
 * changed.
 */
std::size_t
replayNoisy(const MicroProgram &prog, const InputPages &pages,
            const SenseNoise &noise, BitVector &out)
{
    thread_local ReplayScratch scratch;
    const std::size_t width = out.size();
    const std::size_t senses = noise.flipsEnd.size();
    const std::size_t entries =
        (senses ? noise.flipsEnd.back() : 0) + noise.stuck.size();

    // Lane l of group g replays lines[64g+l]: each noisy bitline gets
    // the next lane when it first appears, and a hash table at most
    // half full finds it again.  Per group: one word per sensing with
    // its flips (a bitline listed twice flips back), then the pinned
    // lanes and the value of each one's last stuck entry.
    const std::size_t stride = senses + 2;
    std::vector<std::uint64_t> &slots = scratch.slots;
    std::vector<std::uint32_t> &lines = scratch.lines;
    std::vector<Word> &masks = scratch.masks;
    const int slotBits =
        std::max(6, static_cast<int>(std::bit_width(2 * entries)));
    slots.assign(std::size_t{1} << slotBits, 0);
    lines.clear();
    masks.clear();
    // Returns the group's masks of @p bitline's lane and its bit there.
    const auto laneOf = [&](std::uint32_t bitline) {
        const std::size_t mask = slots.size() - 1;
        // Fibonacci hashing spreads runs of stuck bitlines too.
        std::size_t h = static_cast<std::size_t>(
            (bitline * 0x9E37'79B9'7F4A'7C15ull) >> (64 - slotBits));
        while (slots[h] != 0 && slots[h] >> 32 != bitline)
            h = (h + 1) & mask;
        if (slots[h] == 0) {
            if (lines.size() % 64 == 0)
                masks.resize(masks.size() + stride, 0);
            lines.push_back(bitline);
            slots[h] = static_cast<std::uint64_t>(bitline) << 32 |
                       lines.size();
        }
        const std::size_t lane = (slots[h] & 0xFFFF'FFFF) - 1;
        return std::pair{&masks[lane / 64 * stride], Word{1} << (lane % 64)};
    };
    for (std::size_t k = 0; k < senses; ++k) {
        for (std::uint32_t i = k ? noise.flipsEnd[k - 1] : 0;
             i < noise.flipsEnd[k]; ++i) {
            if (noise.flips[i] >= width)
                continue;
            const auto [m, bit] = laneOf(noise.flips[i]);
            m[k] ^= bit;
        }
    }
    for (const StuckBitline &st : noise.stuck) {
        if (st.bitline >= width)
            continue;
        const auto [m, bit] = laneOf(static_cast<std::uint32_t>(st.bitline));
        m[senses] |= bit;
        m[senses + 1] =
            st.value ? (m[senses + 1] | bit) : (m[senses + 1] & ~bit);
    }

    std::size_t changed = 0;
    Word *dst = out.words().data();
    for (std::size_t first = 0; first < lines.size(); first += 64) {
        const std::size_t lanes =
            std::min<std::size_t>(64, lines.size() - first);
        const Word *m = &masks[first / 64 * stride];
        Inputs in{};
        for (std::size_t l = 0; l < lanes; ++l)
            for (std::size_t j = 0; j < kInputs; ++j)
                in[j] |= Word{bitAt(pages[j], lines[first + l])} << l;
        const Word res = runLanes(prog, in, [&](std::size_t k, Word &so) {
            if (k < senses)
                so ^= m[k];
            so = (so & ~m[senses]) | (m[senses + 1] & m[senses]);
        });
        for (std::size_t l = 0; l < lanes; ++l) {
            const std::uint32_t bitline = lines[first + l];
            Word &w = dst[bitline / 64];
            const Word bit = Word{1} << (bitline % 64);
            if (((w & bit) != 0) != (((res >> l) & 1) != 0)) {
                w ^= bit;
                ++changed;
            }
        }
    }
    return changed;
}

} // namespace

std::size_t
executeProgram(const MicroProgram &prog, const WordlineData &self,
               const WordlineData &wl_m, const WordlineData &wl_n,
               BitVector &out, const SenseNoise &noise)
{
    const std::size_t width = out.size();
    checkWidth(self, width);
    checkWidth(wl_m, width);
    checkWidth(wl_n, width);
    PARABIT_CHECK(!prog.steps.empty() &&
                      (prog.steps.front().kind ==
                           MicroStep::Kind::kInitNormal ||
                       prog.steps.front().kind ==
                           MicroStep::Kind::kInitInverted),
                  "latch kernel: a program starts with an initialisation");
    PARABIT_CHECK(noise.flipsEnd.empty() ||
                      noise.flipsEnd.size() ==
                          static_cast<std::size_t>(prog.senseCount()),
                  "latch kernel: noise must list every sensing's flips");

    const InputPages pages = {self.lsb, self.msb, wl_m.lsb,
                              wl_m.msb, wl_n.lsb, wl_n.msb};
    applyTable(deriveTable(prog, pages), out);
    out.maskTail();
    return noise.empty() ? 0 : replayNoisy(prog, pages, noise, out);
}

BitVector
executeCoLocated(BitwiseOp op, const BitVector &x, const BitVector &y,
                 const SenseNoise &noise)
{
    BitVector out = BitVector::forOverwrite(x.size());
    executeProgram(coLocatedProgram(op), WordlineData{&x, &y}, {}, {}, out,
                   noise);
    return out;
}

BitVector
executeLocationFree(BitwiseOp op, const BitVector &m, const BitVector &n,
                    const BitVector *m_companion, const BitVector *n_companion,
                    const SenseNoise &noise, LocFreeVariant variant)
{
    // kMsbLsb: operand M occupies the MSB page of its wordline; kLsbLsb:
    // its LSB page.  Operand N always occupies the LSB page of its
    // wordline.  Companion pages hold unrelated data.
    const bool m_in_msb = variant == LocFreeVariant::kMsbLsb;
    const WordlineData wl_m{m_in_msb ? m_companion : &m,
                            m_in_msb ? &m : m_companion};
    const WordlineData wl_n{&n, n_companion};
    BitVector out = BitVector::forOverwrite(n.size());
    executeProgram(locationFreeProgram(op, variant), {}, wl_m, wl_n, out,
                   noise);
    return out;
}

} // namespace parabit::flash
