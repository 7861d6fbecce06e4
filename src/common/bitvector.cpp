#include "common/bitvector.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/invariant.hpp"

namespace parabit {

BitVector::BitVector(std::size_t n, bool value)
    : numBits_(n), words_(wordsFor(n), value ? ~std::uint64_t{0} : 0)
{
    maskTail();
}

BitVector
BitVector::forOverwrite(std::size_t n)
{
    BitVector v;
    v.numBits_ = n;
    v.words_.resize(wordsFor(n));
    return v;
}

BitVector::BitVector(const BitVector &other)
    : numBits_(other.numBits_), words_(other.words_.size())
{
    std::copy(other.words_.begin(), other.words_.end(), words_.begin());
}

BitVector &
BitVector::operator=(const BitVector &other)
{
    numBits_ = other.numBits_;
    words_.resize(other.words_.size());
    std::copy(other.words_.begin(), other.words_.end(), words_.begin());
    return *this;
}

BitVector
BitVector::fromString(const std::string &s)
{
    BitVector v(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '1') {
            v.set(i, true);
        } else if (s[i] != '0') {
            throw std::invalid_argument("BitVector::fromString: bad char");
        }
    }
    return v;
}

bool
BitVector::get(std::size_t i) const
{
    PARABIT_CHECK(i < numBits_, "BitVector::get: bit " + std::to_string(i) +
                                    " of " + std::to_string(numBits_));
    return (words_[i / 64] >> (i % 64)) & 1u;
}

void
BitVector::set(std::size_t i, bool v)
{
    PARABIT_CHECK(i < numBits_, "BitVector::set: bit " + std::to_string(i) +
                                    " of " + std::to_string(numBits_));
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (v)
        words_[i / 64] |= mask;
    else
        words_[i / 64] &= ~mask;
}

void
BitVector::resize(std::size_t n)
{
    numBits_ = n;
    words_.resize(wordsFor(n), 0);
    maskTail();
}

void
BitVector::fill(bool v)
{
    for (auto &w : words_)
        w = v ? ~std::uint64_t{0} : 0;
    maskTail();
}

std::size_t
BitVector::popcount() const
{
    std::size_t n = 0;
    for (auto w : words_)
        n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

BitVector
BitVector::slice(std::size_t pos, std::size_t len) const
{
    PARABIT_CHECK(pos + len <= numBits_,
                  "BitVector::slice: [" + std::to_string(pos) + ", " +
                      std::to_string(pos + len) + ") of " +
                      std::to_string(numBits_));
    BitVector out(len);
    for (std::size_t i = 0; i < len; ++i)
        out.set(i, get(pos + i));
    return out;
}

void
BitVector::assign(std::size_t pos, const BitVector &other)
{
    PARABIT_CHECK(pos + other.size() <= numBits_,
                  "BitVector::assign: [" + std::to_string(pos) + ", " +
                      std::to_string(pos + other.size()) + ") of " +
                      std::to_string(numBits_));
    for (std::size_t i = 0; i < other.size(); ++i)
        set(pos + i, other.get(i));
}

BitVector &
BitVector::operator&=(const BitVector &rhs)
{
    PARABIT_CHECK(numBits_ == rhs.numBits_,
                  "BitVector::operator&=: size " + std::to_string(numBits_) +
                      " vs " + std::to_string(rhs.numBits_));
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] &= rhs.words_[i];
    return *this;
}

BitVector &
BitVector::operator|=(const BitVector &rhs)
{
    PARABIT_CHECK(numBits_ == rhs.numBits_,
                  "BitVector::operator|=: size " + std::to_string(numBits_) +
                      " vs " + std::to_string(rhs.numBits_));
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] |= rhs.words_[i];
    return *this;
}

BitVector &
BitVector::operator^=(const BitVector &rhs)
{
    PARABIT_CHECK(numBits_ == rhs.numBits_,
                  "BitVector::operator^=: size " + std::to_string(numBits_) +
                      " vs " + std::to_string(rhs.numBits_));
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] ^= rhs.words_[i];
    return *this;
}

void
BitVector::invert()
{
    for (auto &w : words_)
        w = ~w;
    maskTail();
}

bool
BitVector::operator==(const BitVector &rhs) const
{
    return numBits_ == rhs.numBits_ && words_ == rhs.words_;
}

std::string
BitVector::toString() const
{
    std::string s(numBits_, '0');
    for (std::size_t i = 0; i < numBits_; ++i)
        if (get(i))
            s[i] = '1';
    return s;
}

void
BitVector::maskTail()
{
    const std::size_t rem = numBits_ % 64;
    if (rem != 0 && !words_.empty())
        words_.back() &= (std::uint64_t{1} << rem) - 1;
}

} // namespace parabit
