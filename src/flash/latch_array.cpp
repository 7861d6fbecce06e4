#include "flash/latch_array.hpp"

#include <algorithm>
#include <array>

#include "common/invariant.hpp"
#include "common/logging.hpp"

namespace parabit::flash {

namespace {

using Word = std::uint64_t;

/** Words of latch state the kernel keeps on the stack per block. */
constexpr std::size_t kLatchBlockWords = 64;

/** What an absent (erased-looking) page reads as: all ones. */
constexpr std::array<Word, kLatchBlockWords> kErasedBlock = [] {
    std::array<Word, kLatchBlockWords> a{};
    a.fill(~Word{0});
    return a;
}();

/** The block of @p page starting at word @p first (all-ones if null). */
const Word *
blockOf(const BitVector *page, std::size_t first)
{
    return page ? page->words().data() + first : kErasedBlock.data();
}

void
checkWidth(const WordlineData &wl, std::size_t width)
{
    for (const BitVector *page : {wl.lsb, wl.msb})
        PARABIT_CHECK(!page || page->size() == width,
                      "latch kernel: operand page width differs from the "
                      "result page");
}

/** SO words of one sensing over @p n words (M7 inversion included). */
void
senseBlock(const MicroStep &st, const WordlineData &wl, std::size_t first,
           std::size_t n, Word *so)
{
    const Word inv = st.soInverted ? ~Word{0} : Word{0};
    const Word *lsb = blockOf(wl.lsb, first);
    const Word *msb = blockOf(wl.msb, first);
    // A kNone sensing is the VREAD0 L1 re-init: always "above".
    switch (st.wl == WordlineSel::kNone ? VRead::kVRead0 : st.vread) {
      case VRead::kVRead0:
        std::fill_n(so, n, ~inv);
        break;
      case VRead::kVRead1:
        for (std::size_t w = 0; w < n; ++w)
            so[w] = ~(lsb[w] & msb[w]) ^ inv;
        break;
      case VRead::kVRead2:
        for (std::size_t w = 0; w < n; ++w)
            so[w] = ~lsb[w] ^ inv;
        break;
      case VRead::kVRead3:
        for (std::size_t w = 0; w < n; ++w)
            so[w] = (~lsb[w] & msb[w]) ^ inv;
        break;
    }
}

/** Apply sensing @p sense's flips, then the stuck bitlines, to the SO
 *  words of the block whose first bitline is @p first_bit (a multiple
 *  of 64, so a bitline's bit within its word is bitline % 64). */
void
applyNoise(const SenseNoise &noise, std::size_t sense, std::size_t first_bit,
           std::size_t n_bits, Word *so)
{
    const auto wordOf = [&](std::size_t bitline) -> Word * {
        if (bitline < first_bit || bitline - first_bit >= n_bits)
            return nullptr;
        return &so[(bitline - first_bit) / 64];
    };
    if (!noise.flipsEnd.empty()) {
        const std::uint32_t begin = sense ? noise.flipsEnd[sense - 1] : 0;
        for (std::uint32_t i = begin; i < noise.flipsEnd[sense]; ++i)
            if (Word *w = wordOf(noise.flips[i]))
                *w ^= Word{1} << (noise.flips[i] % 64);
    }
    for (const StuckBitline &s : noise.stuck) {
        if (Word *w = wordOf(s.bitline)) {
            const Word bit = Word{1} << (s.bitline % 64);
            *w = s.value ? (*w | bit) : (*w & ~bit);
        }
    }
}

} // namespace

void
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
    const bool noisy = !noise.empty();

    Word *dst = out.words().data();
    const std::size_t words = out.words().size();
    // C and B per bitline; A = ~C and OUT = ~B are never stored.
    std::array<Word, kLatchBlockWords> c{}, b{}, so{};
    for (std::size_t first = 0; first < words; first += kLatchBlockWords) {
        const std::size_t n = std::min(kLatchBlockWords, words - first);
        std::size_t sense = 0;
        for (const MicroStep &st : prog.steps) {
            switch (st.kind) {
              case MicroStep::Kind::kInitNormal:
                // C = 0 (A = 1); SET grounds OUT, so B = 1.
                std::fill_n(c.data(), n, Word{0});
                std::fill_n(b.data(), n, ~Word{0});
                break;
              case MicroStep::Kind::kInitInverted:
                // A = 0 (C = 1); L2 as in the normal case.
                std::fill_n(c.data(), n, ~Word{0});
                std::fill_n(b.data(), n, ~Word{0});
                break;
              case MicroStep::Kind::kSense: {
                const WordlineData &wl = st.wl == WordlineSel::kOperandM
                                             ? wl_m
                                             : st.wl == WordlineSel::kOperandN
                                                   ? wl_n
                                                   : self;
                senseBlock(st, wl, first, n, so.data());
                if (noisy)
                    applyNoise(noise, sense, first * 64, n * 64, so.data());
                ++sense;
                if (st.pulse == LatchPulse::kM1) {
                    // C <- C & ~SO.
                    for (std::size_t w = 0; w < n; ++w)
                        c[w] &= ~so[w];
                } else if (st.pulse == LatchPulse::kM2) {
                    // A <- A & ~SO, i.e. C <- C | SO.
                    for (std::size_t w = 0; w < n; ++w)
                        c[w] |= so[w];
                } else {
                    panic("latch kernel: sense step cannot pulse M3");
                }
                break;
              }
              case MicroStep::Kind::kTransfer:
                // B <- B & ~A, i.e. B & C.
                for (std::size_t w = 0; w < n; ++w)
                    b[w] &= c[w];
                break;
            }
        }
        for (std::size_t w = 0; w < n; ++w)
            dst[first + w] = ~b[w];
    }
    out.maskTail();
}

BitVector
executeCoLocated(BitwiseOp op, const BitVector &x, const BitVector &y,
                 const SenseNoise &noise)
{
    BitVector out(x.size());
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
    BitVector out(n.size());
    executeProgram(locationFreeProgram(op, variant), {}, wl_m, wl_n, out,
                   noise);
    return out;
}

} // namespace parabit::flash
