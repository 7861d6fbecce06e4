/**
 * @file
 * NVMe queue-pair ring tests: FIFO order, full/empty detection with the
 * reserved slot, wraparound, completion phase-tag behaviour, and the
 * hold that keeps a full CQ from dropping completions.
 */

#include <gtest/gtest.h>

#include "nvme/queue.hpp"

namespace parabit::nvme {
namespace {

NvmeCommand
readCmd(std::uint64_t lba)
{
    NvmeCommand c;
    c.setOpcode(Opcode::kRead);
    c.setSlba(lba);
    return c;
}

TEST(QueuePair, StartsEmpty)
{
    QueuePair qp(1, 8);
    EXPECT_EQ(qp.sqOccupancy(), 0u);
    EXPECT_FALSE(qp.fetch().has_value());
    EXPECT_FALSE(qp.reap().has_value());
}

TEST(QueuePair, SubmitFetchPreservesFifoOrder)
{
    QueuePair qp(1, 8);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(qp.submit(readCmd(i), 0).has_value());
    EXPECT_EQ(qp.sqOccupancy(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        auto f = qp.fetch();
        ASSERT_TRUE(f);
        EXPECT_EQ(f->cmd.slba(), i);
    }
    EXPECT_FALSE(qp.fetch().has_value());
}

TEST(QueuePair, FullRingRejectsWithReservedSlot)
{
    QueuePair qp(1, 4); // 3 usable slots
    EXPECT_TRUE(qp.submit(readCmd(0), 0).has_value());
    EXPECT_TRUE(qp.submit(readCmd(1), 0).has_value());
    EXPECT_TRUE(qp.submit(readCmd(2), 0).has_value());
    EXPECT_FALSE(qp.submit(readCmd(3), 0).has_value()) << "ring full";
    qp.fetch();
    EXPECT_TRUE(qp.submit(readCmd(3), 0).has_value())
        << "slot freed by fetch";
}

TEST(QueuePair, CidsAreUniqueAndSequential)
{
    QueuePair qp(1, 8);
    const auto a = qp.submit(readCmd(0), 0);
    const auto b = qp.submit(readCmd(1), 0);
    ASSERT_TRUE(a && b);
    EXPECT_NE(*a, *b);
}

TEST(QueuePair, CompletionRoundTripWithLatency)
{
    QueuePair qp(1, 8);
    const auto cid = qp.submit(readCmd(7), 100);
    ASSERT_TRUE(cid);
    auto f = qp.fetch();
    ASSERT_TRUE(f);
    qp.complete(f->cid, f->submittedAt, 350);
    auto c = qp.reap();
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cid, *cid);
    EXPECT_EQ(c->latency(), 250u);
    EXPECT_FALSE(qp.reap().has_value()) << "CQ drained";
}

TEST(QueuePair, WraparoundManyTimes)
{
    QueuePair qp(1, 4);
    for (int round = 0; round < 40; ++round) {
        const auto cid = qp.submit(readCmd(static_cast<std::uint64_t>(round)),
                                   static_cast<Tick>(round));
        ASSERT_TRUE(cid) << "round " << round;
        auto f = qp.fetch();
        ASSERT_TRUE(f);
        EXPECT_EQ(f->cmd.slba(), static_cast<std::uint64_t>(round));
        qp.complete(f->cid, f->submittedAt, static_cast<Tick>(round + 1));
        auto c = qp.reap();
        ASSERT_TRUE(c) << "phase tag must track CQ wraps, round " << round;
        EXPECT_EQ(c->cid, *cid);
    }
}

TEST(QueuePair, MultipleInFlightCompletions)
{
    QueuePair qp(1, 8);
    std::vector<std::uint16_t> cids;
    for (int i = 0; i < 5; ++i)
        cids.push_back(*qp.submit(readCmd(static_cast<std::uint64_t>(i)), 0));
    for (int i = 0; i < 5; ++i) {
        auto f = qp.fetch();
        qp.complete(f->cid, f->submittedAt, 10);
    }
    for (int i = 0; i < 5; ++i) {
        auto c = qp.reap();
        ASSERT_TRUE(c);
        EXPECT_EQ(c->cid, cids[static_cast<std::size_t>(i)]);
    }
}

TEST(QueuePair, FullCqHoldsCompletionsInOrder)
{
    QueuePair qp(1, 4); // 3 usable CQ slots
    std::vector<std::uint16_t> cids;
    const auto completeOne = [&](int i) {
        const auto cid = qp.submit(readCmd(static_cast<std::uint64_t>(i)), 0);
        ASSERT_TRUE(cid);
        cids.push_back(*cid);
        const auto f = qp.fetch();
        ASSERT_TRUE(f);
        qp.complete(f->cid, f->submittedAt, static_cast<Tick>(10 + i));
    };
    // Completions 3 and 4 find the CQ full and wait for a slot; the
    // sixth arrives after one reap freed a slot the hold refilled.
    for (int i = 0; i < 5; ++i)
        completeOne(i);
    const auto first = qp.reap();
    ASSERT_TRUE(first);
    EXPECT_EQ(first->cid, cids[0]);
    completeOne(5);
    for (std::size_t i = 1; i < 6; ++i) {
        const auto c = qp.reap();
        ASSERT_TRUE(c) << "completion " << i << " was dropped";
        EXPECT_EQ(c->cid, cids[i]);
        EXPECT_EQ(c->completedAt, static_cast<Tick>(10 + i))
            << "holding a completion moves no tick";
    }
    EXPECT_FALSE(qp.reap().has_value()) << "no ghost completions";
}

TEST(QueuePair, TinyDepthDies)
{
    EXPECT_DEATH(QueuePair(0, 1), "depth");
}

} // namespace
} // namespace parabit::nvme
