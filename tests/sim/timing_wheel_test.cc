/**
 * @file
 * Hierarchical-timing-wheel specifics of the EventQueue: slot routing
 * across the three levels (L0 slots, L1 blocks, overflow heap) and the
 * cascade paths between them.  The API-level behavior (ordering,
 * pooling, panics) is covered by event_queue_test.cc; these tests pin
 * the level boundaries where a wheel bug would hide.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace vpc
{
namespace
{

TEST(TimingWheel, FarFutureEventCascadesFromOverflow)
{
    EventQueue q;
    // Beyond the L1 horizon (kL0Slots * kL1Slots cycles): must park
    // in the overflow heap, then cascade through L1 and L0 and still
    // fire at exactly the right cycle.
    const Cycle far = static_cast<Cycle>(EventQueue::kL0Slots) *
                      EventQueue::kL1Slots + 12345;
    std::vector<Cycle> fired;
    q.schedule(far, [&] { fired.push_back(far); });
    q.schedule(3, [&] { fired.push_back(3); });
    EXPECT_EQ(q.nextEventCycle(), 3u);

    EXPECT_EQ(q.runDue(3), 1u);
    EXPECT_EQ(q.nextEventCycle(), far);
    // Jump straight to the due cycle, as the skip kernel does.
    EXPECT_EQ(q.runDue(far), 1u);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1], far);
    EXPECT_TRUE(q.empty());
    EXPECT_GT(q.cascades(), 0u);
}

TEST(TimingWheel, MidRangeEventUsesL1Block)
{
    EventQueue q;
    // Within the L1 horizon but outside the current L0 block.
    const Cycle mid = EventQueue::kL0Slots * 3 + 17;
    bool hit = false;
    q.schedule(mid, [&] { hit = true; });
    EXPECT_EQ(q.nextEventCycle(), mid);
    EXPECT_EQ(q.runDue(mid), 1u);
    EXPECT_TRUE(hit);
    EXPECT_TRUE(q.empty());
}

TEST(TimingWheel, DenseAndSparseMixFiresInOrder)
{
    EventQueue q;
    std::vector<Cycle> fired;
    // One event per region: current block, next blocks, overflow —
    // scheduled out of order.
    std::vector<Cycle> whens = {
        70000, 5, 600, 511, 512, 65535, 65536, 130000, 1, 0,
    };
    for (Cycle w : whens)
        q.schedule(w, [&fired, w] { fired.push_back(w); });
    Cycle now = 0;
    while (!q.empty()) {
        now = q.nextEventCycle();
        q.runDue(now);
    }
    std::vector<Cycle> sorted = whens;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fired, sorted);
}

TEST(TimingWheel, SameCycleFifoAcrossLevels)
{
    EventQueue q;
    // Both land at cycle 600: one direct (scheduled when 600 is in
    // L1), one after an advance puts 600 in L0.  Insertion order must
    // survive the cascade.
    std::vector<int> order;
    q.schedule(600, [&] { order.push_back(1); });
    q.schedule(100, [&] {
        q.schedule(600, [&] { order.push_back(2); });
    });
    q.runDue(100);
    q.runDue(600);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimingWheel, RescheduleFromCallbackSameCycleRuns)
{
    EventQueue q;
    int runs = 0;
    q.schedule(50, [&] {
        ++runs;
        q.schedule(50, [&] { ++runs; });
    });
    // Same-cycle reschedule fires in the same runDue invocation
    // (next round), exactly like the heap-based queue did.
    EXPECT_EQ(q.runDue(50), 2u);
    EXPECT_EQ(runs, 2);
}

TEST(TimingWheel, SameCycleOverflowEntriesFireInScheduleOrder)
{
    EventQueue q;
    // Beyond the L1 horizon, so every entry parks in the overflow
    // heap.  The heap orders by cycle only and pops equal cycles in no
    // fixed order; the (when, seq) sort at fire time must restore
    // schedule order.
    const Cycle far = static_cast<Cycle>(EventQueue::kL0Slots) *
                      EventQueue::kL1Slots + 100;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(far, [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.runDue(far), 16u);
    std::vector<int> expected(16);
    for (int i = 0; i < 16; ++i)
        expected[i] = i;
    EXPECT_EQ(order, expected);
}

} // namespace
} // namespace vpc
