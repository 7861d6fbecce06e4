/**
 * @file
 * Static wear-leveling tests: cold data must not pin young blocks
 * forever — under a skewed hot/cold workload, the erase-count spread
 * stays bounded when wear leveling is on and grows when it is off.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ssd/ftl.hpp"

namespace parabit::ssd {
namespace {

struct Rig
{
    explicit Rig(std::uint32_t wl_threshold)
    {
        cfg = SsdConfig::tiny();
        // One plane keeps all churn in a single wear domain.
        cfg.geometry.channels = 1;
        cfg.geometry.chipsPerChannel = 1;
        cfg.geometry.planesPerDie = 1;
        cfg.geometry.blocksPerPlane = 16;
        cfg.wearLevelThreshold = wl_threshold;
        for (std::uint32_t i = 0; i < cfg.geometry.chips(); ++i)
            chips.emplace_back(cfg.geometry, cfg.storeData, cfg.errors, i);
        ftl = std::make_unique<Ftl>(cfg, chips);
    }

    /** Fill ~half the plane with cold data, then churn a hot set. */
    void
    run(int rounds)
    {
        std::vector<PhysOp> ops;
        const std::uint64_t cold_pages =
            cfg.geometry.pagesPerBlock() * 6; // ~6 blocks of static data
        for (std::uint64_t l = 0; l < cold_pages; ++l)
            ftl->writePage(100 + l, nullptr, ops);
        for (int round = 0; round < rounds; ++round)
            for (std::uint64_t l = 0; l < 8; ++l)
                ftl->writePage(l, nullptr, ops);
    }

    SsdConfig cfg;
    std::vector<flash::Chip> chips;
    std::unique_ptr<Ftl> ftl;
};

TEST(WearLeveling, SpreadBoundedWhenEnabled)
{
    Rig rig(/*wl_threshold=*/4);
    rig.run(600);
    EXPECT_GT(rig.ftl->wearLevelMoves(), 0u)
        << "skewed churn must trigger migrations";
    // Spread can exceed the threshold transiently (migration happens on
    // the GC path), but must stay the same order of magnitude.
    EXPECT_LE(rig.ftl->eraseSpread(0), 3 * 4 + 4);
}

TEST(WearLeveling, SpreadGrowsWhenDisabled)
{
    Rig off(/*wl_threshold=*/0);
    off.run(600);
    EXPECT_EQ(off.ftl->wearLevelMoves(), 0u);

    Rig on(/*wl_threshold=*/4);
    on.run(600);
    EXPECT_LT(on.ftl->eraseSpread(0), off.ftl->eraseSpread(0))
        << "wear leveling must shrink the skew vs disabled";
}

TEST(WearLeveling, DataSurvivesMigration)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.planesPerDie = 1;
    cfg.geometry.blocksPerPlane = 16;
    cfg.wearLevelThreshold = 4;
    std::vector<flash::Chip> chips;
    for (std::uint32_t i = 0; i < cfg.geometry.chips(); ++i)
        chips.emplace_back(cfg.geometry, cfg.storeData, cfg.errors, i);
    Ftl ftl(cfg, chips);

    Rng rng(3);
    std::vector<PhysOp> ops;
    std::vector<BitVector> cold;
    const std::uint64_t cold_pages = cfg.geometry.pagesPerBlock() * 6;
    for (std::uint64_t l = 0; l < cold_pages; ++l) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        cold.push_back(v);
        ftl.writePage(100 + l, &cold.back(), ops);
    }
    for (int round = 0; round < 600; ++round)
        for (std::uint64_t l = 0; l < 8; ++l)
            ftl.writePage(l, nullptr, ops);
    ASSERT_GT(ftl.wearLevelMoves(), 0u);

    for (std::uint64_t l = 0; l < cold_pages; ++l) {
        std::vector<PhysOp> r;
        ASSERT_EQ(*ftl.readPage(100 + l, r), cold[l]) << "cold page " << l;
    }
}

} // namespace
} // namespace parabit::ssd
