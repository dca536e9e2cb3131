/**
 * @file
 * StealDeque: deterministic single-thread semantics plus an
 * owner-vs-thieves conservation stress (no element lost, none taken
 * twice).
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "preemptible/steal_deque.hh"

using preempt::runtime::StealDeque;
using preempt::runtime::StealResult;

namespace {

TEST(StealDeque, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(StealDeque<std::uint64_t>(1).capacity(), 1u);
    EXPECT_EQ(StealDeque<std::uint64_t>(2).capacity(), 2u);
    EXPECT_EQ(StealDeque<std::uint64_t>(3).capacity(), 4u);
    EXPECT_EQ(StealDeque<std::uint64_t>(100).capacity(), 128u);
}

TEST(StealDeque, OwnerPopsLifo)
{
    StealDeque<std::uint64_t> dq(8);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(dq.push(i));
    EXPECT_EQ(dq.size(), 5u);
    std::uint64_t v = 0;
    for (std::uint64_t i = 5; i-- > 0;) {
        ASSERT_TRUE(dq.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(dq.pop(v));
    EXPECT_TRUE(dq.empty());
}

TEST(StealDeque, ThiefStealsFifo)
{
    StealDeque<std::uint64_t> dq(8);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(dq.push(i));
    std::uint64_t v = 0;
    for (std::uint64_t i = 0; i < 5; ++i) {
        ASSERT_EQ(dq.steal(v), StealResult::Ok);
        EXPECT_EQ(v, i);
    }
    EXPECT_EQ(dq.steal(v), StealResult::Empty);
}

TEST(StealDeque, OwnerAndThiefMeetInTheMiddle)
{
    StealDeque<std::uint64_t> dq(8);
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(dq.push(i));
    std::uint64_t v = 0;
    ASSERT_EQ(dq.steal(v), StealResult::Ok); // oldest
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(dq.pop(v)); // newest
    EXPECT_EQ(v, 3u);
    ASSERT_EQ(dq.steal(v), StealResult::Ok);
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(dq.pop(v)); // last element, owner wins unraced
    EXPECT_EQ(v, 2u);
    EXPECT_FALSE(dq.pop(v));
    EXPECT_EQ(dq.steal(v), StealResult::Empty);
}

TEST(StealDeque, PushFailsWhenFullAndRecoversAfterConsuming)
{
    StealDeque<std::uint64_t> dq(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(dq.push(i));
    EXPECT_FALSE(dq.push(99));
    std::uint64_t v = 0;
    ASSERT_EQ(dq.steal(v), StealResult::Ok);
    EXPECT_TRUE(dq.push(99)); // slot freed at the top, bottom wraps
    EXPECT_EQ(dq.size(), 4u);
}

TEST(StealDeque, WrapAroundPreservesOrder)
{
    StealDeque<std::uint64_t> dq(4);
    std::uint64_t v = 0;
    // Cycle far past the buffer size so indices wrap many times.
    for (std::uint64_t i = 0; i < 64; ++i) {
        ASSERT_TRUE(dq.push(i));
        if (i % 2 == 0) {
            ASSERT_TRUE(dq.pop(v));
            EXPECT_EQ(v, i);
        } else {
            ASSERT_EQ(dq.steal(v), StealResult::Ok);
        }
    }
    EXPECT_TRUE(dq.empty());
}

TEST(StealDeque, BatchTakesOldestFirstAndStopsAtEmpty)
{
    StealDeque<std::uint64_t> dq(16);
    for (std::uint64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(dq.push(i));
    std::uint64_t out[8] = {};
    StealResult last = StealResult::Ok;
    EXPECT_EQ(dq.stealBatch(out, 4, &last), 4u);
    EXPECT_EQ(last, StealResult::Ok);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], i);
    EXPECT_EQ(dq.stealBatch(out, 8, &last), 2u);
    EXPECT_EQ(last, StealResult::Empty);
    EXPECT_EQ(out[0], 4u);
    EXPECT_EQ(out[1], 5u);
    EXPECT_EQ(dq.stealBatch(out, 8, &last), 0u);
    EXPECT_EQ(last, StealResult::Empty);
}

/**
 * Conservation under contention: one owner pushing and popping, many
 * thieves stealing. Every pushed value must be consumed exactly once
 * across all parties.
 */
TEST(StealDequeStress, OwnerAndThievesConserveElements)
{
    constexpr std::uint64_t kN = 200000;
    constexpr int kThieves = 3;
    StealDeque<std::uint64_t> dq(1024);

    std::vector<std::atomic<std::uint32_t>> seen(kN);
    std::atomic<bool> ownerDone{false};

    auto consume = [&](std::uint64_t v) {
        ASSERT_LT(v, kN);
        seen[v].fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            std::uint64_t v = 0;
            for (;;) {
                StealResult r = dq.steal(v);
                if (r == StealResult::Ok) {
                    consume(v);
                } else if (ownerDone.load(std::memory_order_acquire) &&
                           r == StealResult::Empty) {
                    // One owner, no more pushes: Empty is final.
                    break;
                }
            }
        });
    }

    std::uint64_t v = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
        while (!dq.push(i)) {
            if (dq.pop(v))
                consume(v); // full: drain our own bottom
        }
        if ((i & 7) == 0 && dq.pop(v))
            consume(v); // interleave owner pops with pushes
    }
    while (dq.pop(v))
        consume(v);
    ownerDone.store(true, std::memory_order_release);
    for (auto &th : thieves)
        th.join();

    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(seen[i].load(), 1u) << "element " << i;
    EXPECT_TRUE(dq.empty());
}

/**
 * A pop that loses the last element to a thief leaves its output
 * untouched: a caller that reuses the variable for other work would
 * otherwise hold an element the thief now owns, and run it twice.
 */
TEST(StealDequeStress, LostPopLeavesOutputUntouched)
{
    constexpr std::uint64_t kRounds = 100000;
    constexpr std::uint64_t kUnset = ~std::uint64_t{0};
    StealDeque<std::uint64_t> dq(4);
    std::atomic<bool> done{false};
    std::thread thief([&] {
        std::uint64_t v = 0;
        while (!done.load(std::memory_order_acquire))
            dq.steal(v);
    });
    std::uint64_t lost = 0;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        ASSERT_TRUE(dq.push(i));
        std::uint64_t v = kUnset;
        if (!dq.pop(v)) {
            ++lost;
            ASSERT_EQ(v, kUnset) << "a failed pop wrote its output";
        }
    }
    done.store(true, std::memory_order_release);
    thief.join();
    // Only the races the thief happened to win exercise the path.
    RecordProperty("lost_pops", static_cast<int>(lost));
}

} // namespace
