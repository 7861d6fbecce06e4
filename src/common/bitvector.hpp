/**
 * @file
 * Packed bit vector with bulk bitwise operations.
 *
 * BitVector is the functional data type carried by flash pages, workload
 * generators and the host-side golden models.  It stores bits LSB-first in
 * 64-bit words and provides the seven bitwise operations that ParaBit
 * accelerates, plus population count and slicing helpers used by the
 * workloads.
 */

#ifndef PARABIT_COMMON_BITVECTOR_HPP_
#define PARABIT_COMMON_BITVECTOR_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace parabit {

/**
 * std::allocator, except that an element constructed without a value is
 * left uninitialised instead of zeroed.  BitVector stores its words
 * with it so that a page a kernel overwrites in full
 * (BitVector::forOverwrite) skips the zero-fill; every construction
 * that names a value (fill, copy) still writes it.
 */
template <class T>
struct UninitAllocator : std::allocator<T>
{
    static_assert(std::is_trivially_default_constructible_v<T>,
                  "skipping construction is only sound for trivial types");

    template <class U>
    struct rebind
    {
        using other = UninitAllocator<U>;
    };

    UninitAllocator() = default;
    template <class U>
    UninitAllocator(const UninitAllocator<U> &) noexcept
    {
    }

    template <class U>
    void construct(U *) noexcept
    {
    }
    template <class U, class... Args>
    void construct(U *p, Args &&...args)
    {
        std::construct_at(p, std::forward<Args>(args)...);
    }
};

/**
 * A densely packed, dynamically sized vector of bits.
 *
 * Bits beyond size() inside the last storage word are kept at zero as a
 * class invariant so that equality, popcount and hashing can operate on
 * whole words.
 */
class BitVector
{
  public:
    BitVector() = default;

    /** Construct @p n bits, all initialised to @p value. */
    explicit BitVector(std::size_t n, bool value = false);

    /**
     * @p n bits whose words are unspecified: for a result the caller
     * writes in full, word by word, before calling maskTail().
     */
    static BitVector forOverwrite(std::size_t n);

    /** A copy moves the words as one block; through the allocator they
     *  would be copied one at a time. */
    BitVector(const BitVector &other);
    BitVector &operator=(const BitVector &other);
    BitVector(BitVector &&) noexcept = default;
    BitVector &operator=(BitVector &&) noexcept = default;

    /**
     * Construct from a 0/1 string, most-significant-looking char first is
     * NOT implied: bit i of the vector is s[i].  Any character other than
     * '0' is treated as 1 only if it is '1'; other characters throw.
     */
    static BitVector fromString(const std::string &s);

    /** Number of bits held. */
    std::size_t size() const { return numBits_; }
    bool empty() const { return numBits_ == 0; }

    /** Read bit @p i (bounds-checked with assert in debug builds). */
    bool get(std::size_t i) const;
    /** Write bit @p i. */
    void set(std::size_t i, bool v);

    /** Resize to @p n bits; new bits are zero. */
    void resize(std::size_t n);

    /** Set every bit to @p v. */
    void fill(bool v);

    /** Number of one-bits. */
    std::size_t popcount() const;

    /** Extract bits [pos, pos+len) as a new vector. */
    BitVector slice(std::size_t pos, std::size_t len) const;

    /** Overwrite bits [pos, pos+other.size()) with @p other. */
    void assign(std::size_t pos, const BitVector &other);

    /** @name In-place bulk bitwise operations (sizes must match). */
    /// @{
    BitVector &operator&=(const BitVector &rhs);
    BitVector &operator|=(const BitVector &rhs);
    BitVector &operator^=(const BitVector &rhs);
    /** Flip every bit. */
    void invert();
    /// @}

    friend BitVector operator&(BitVector lhs, const BitVector &rhs)
    { lhs &= rhs; return lhs; }
    friend BitVector operator|(BitVector lhs, const BitVector &rhs)
    { lhs |= rhs; return lhs; }
    friend BitVector operator^(BitVector lhs, const BitVector &rhs)
    { lhs ^= rhs; return lhs; }
    friend BitVector operator~(BitVector v) { v.invert(); return v; }

    bool operator==(const BitVector &rhs) const;
    bool operator!=(const BitVector &rhs) const { return !(*this == rhs); }

    /** Render as a 0/1 string, bit 0 first. */
    std::string toString() const;

    /** The word storage; resizing it without a value leaves words
     *  unspecified. */
    using Words = std::vector<std::uint64_t, UninitAllocator<std::uint64_t>>;

    /** Direct word access for fast packing (word i holds bits 64i..64i+63). */
    const Words &words() const { return words_; }
    Words &words() { return words_; }

    /** Re-establish the invariant after external word mutation. */
    void maskTail();

  private:
    static std::size_t wordsFor(std::size_t bits) { return (bits + 63) / 64; }

    std::size_t numBits_ = 0;
    Words words_;
};

} // namespace parabit

#endif // PARABIT_COMMON_BITVECTOR_HPP_
