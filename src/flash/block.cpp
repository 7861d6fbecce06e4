#include "flash/block.hpp"

#include <algorithm>
#include <cassert>

#include "common/invariant.hpp"
#include "common/logging.hpp"

namespace parabit::flash {

namespace {

/** What pageData() answers in a block that stores no payloads. */
const Payload kNoPayload;

} // namespace

Block::Block(std::uint32_t wordlines, std::size_t page_bits, bool store_data)
    : pageBits_(page_bits), storeData_(store_data), wls_(wordlines),
      data_(store_data ? 2 * std::size_t{wordlines} : 0),
      freePages_(2 * wordlines)
{
}

Block::Wordline &
Block::wl(std::uint32_t i)
{
    assert(i < wls_.size());
    return wls_[i];
}

const Block::Wordline &
Block::wl(std::uint32_t i) const
{
    assert(i < wls_.size());
    return wls_[i];
}

PageState
Block::pageState(std::uint32_t i, bool msb) const
{
    return wl(i).state[msb];
}

void
Block::program(std::uint32_t i, bool msb, const Payload &data,
               const PageOob *oob)
{
    auto &w = wl(i);
    if (w.state[msb] != PageState::kFree)
        panic("Block::program: page not free (program-before-erase)");
    if (storeData_ && data) {
        PARABIT_CHECK(data->size() == pageBits_,
                      "Block::program: payload width differs from the page");
        data_[slot(i, msb)] = data;
    }
    w.state[msb] = PageState::kValid;
    ++validPages_;
    --freePages_;
    if (oob) {
        w.lpn[msb] = oob->lpn;
        w.seq[msb] = oob->seq;
        w.tag[msb] = oob->tag;
        w.flags |= static_cast<std::uint8_t>(kOob << msb);
        if (oob->scrambled)
            w.flags |= static_cast<std::uint8_t>(kScrambled << msb);
    }
}

void
Block::invalidate(std::uint32_t i, bool msb)
{
    auto &w = wl(i);
    if (w.state[msb] != PageState::kValid)
        panic("Block::invalidate: page not valid");
    w.state[msb] = PageState::kInvalid;
    --validPages_;
    if (storeData_)
        data_[slot(i, msb)].reset();
}

void
Block::erase()
{
    std::fill(wls_.begin(), wls_.end(), Wordline{});
    std::fill(data_.begin(), data_.end(), nullptr);
    validPages_ = 0;
    freePages_ = 2 * wordlines();
    ++eraseCount_;
}

const Payload &
Block::pageData(std::uint32_t i, bool msb) const
{
    assert(i < wls_.size());
    return storeData_ ? data_[slot(i, msb)] : kNoPayload;
}

std::optional<PageOob>
Block::pageOob(std::uint32_t i, bool msb) const
{
    const auto &w = wl(i);
    if (!(w.flags & (kOob << msb)))
        return std::nullopt;
    return PageOob{w.lpn[msb], w.seq[msb], w.tag[msb],
                   (w.flags & (kScrambled << msb)) != 0};
}

void
Block::markTorn(std::uint32_t i)
{
    wl(i).flags |= kTorn;
    if (storeData_) {
        data_[slot(i, false)].reset();
        data_[slot(i, true)].reset();
    }
}

bool
Block::torn(std::uint32_t i) const
{
    return (wl(i).flags & kTorn) != 0;
}

void
Block::chargeDisturb(std::uint32_t i, std::uint64_t senses)
{
    wl(i).disturb += senses;
}

std::uint64_t
Block::disturbCount(std::uint32_t i) const
{
    return wl(i).disturb;
}

void
Block::setProgramTick(std::uint32_t i, Tick now)
{
    wl(i).programmedAt = now;
}

Tick
Block::programTick(std::uint32_t i) const
{
    return wl(i).programmedAt;
}

WordlineData
Block::wordlineData(std::uint32_t i) const
{
    assert(i < wls_.size());
    if (!storeData_)
        return {};
    return WordlineData{data_[slot(i, false)].get(),
                        data_[slot(i, true)].get()};
}

} // namespace parabit::flash
