#include "flash/block.hpp"

#include <cassert>

#include "common/invariant.hpp"
#include "common/logging.hpp"

namespace parabit::flash {

Block::Block(std::uint32_t wordlines, std::size_t page_bits, bool store_data)
    : pageBits_(page_bits), storeData_(store_data), wls_(wordlines)
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
    const auto &w = wl(i);
    return msb ? w.msbState : w.lsbState;
}

void
Block::program(std::uint32_t i, bool msb, const Payload &data,
               const PageOob *oob)
{
    auto &w = wl(i);
    PageState &st = msb ? w.msbState : w.lsbState;
    if (st != PageState::kFree)
        panic("Block::program: page not free (program-before-erase)");
    if (storeData_ && data) {
        PARABIT_CHECK(data->size() == pageBits_,
                      "Block::program: payload width differs from the page");
        (msb ? w.msbData : w.lsbData) = data;
    }
    st = PageState::kValid;
    ++validPages_;
    if (oob)
        (msb ? w.msbOob : w.lsbOob) = *oob;
}

void
Block::invalidate(std::uint32_t i, bool msb)
{
    auto &w = wl(i);
    PageState &st = msb ? w.msbState : w.lsbState;
    if (st != PageState::kValid)
        panic("Block::invalidate: page not valid");
    st = PageState::kInvalid;
    --validPages_;
    (msb ? w.msbData : w.lsbData).reset();
}

void
Block::erase()
{
    for (auto &w : wls_) {
        w.lsbState = PageState::kFree;
        w.msbState = PageState::kFree;
        w.lsbData.reset();
        w.msbData.reset();
        w.lsbOob.reset();
        w.msbOob.reset();
        w.torn = false;
        w.disturb = 0;
        w.programmedAt = 0;
    }
    validPages_ = 0;
    ++eraseCount_;
}

const Payload &
Block::pageData(std::uint32_t i, bool msb) const
{
    const auto &w = wl(i);
    return msb ? w.msbData : w.lsbData;
}

const PageOob *
Block::pageOob(std::uint32_t i, bool msb) const
{
    const auto &w = wl(i);
    const auto &o = msb ? w.msbOob : w.lsbOob;
    return o ? &*o : nullptr;
}

void
Block::markTorn(std::uint32_t i)
{
    auto &w = wl(i);
    w.torn = true;
    w.lsbData.reset();
    w.msbData.reset();
}

bool
Block::torn(std::uint32_t i) const
{
    return wl(i).torn;
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
    const auto &w = wl(i);
    return WordlineData{w.lsbData.get(), w.msbData.get()};
}

std::uint32_t
Block::freePages() const
{
    std::uint32_t n = 0;
    for (const auto &w : wls_) {
        n += (w.lsbState == PageState::kFree) ? 1 : 0;
        n += (w.msbState == PageState::kFree) ? 1 : 0;
    }
    return n;
}

} // namespace parabit::flash
