/**
 * @file
 * Unit tests for the flexible whole-cache occupancy manager (the
 * Section 4.3 comparison class): the line quotas and occupancy counts
 * CacheArray keeps for it, and the reference victim rule of
 * reference_policies.hh on hand-built sets.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_array.hh"
#include "reference_policies.hh"

namespace vpc
{
namespace
{

CacheLine
line(ThreadId owner, std::uint64_t last_use, bool valid = true)
{
    CacheLine l;
    l.valid = valid;
    l.owner = owner;
    l.lastUse = last_use;
    return l;
}

TEST(GlobalOccupancyManager, QuotasFromTotalLines)
{
    // 256 sets x 4 ways = 1024 lines.
    CacheArray array(256, 4, 64, CapacityPolicy::GlobalOccupancy,
                     {0.5, 0.25});
    EXPECT_EQ(array.lineQuota(0), 512u);
    EXPECT_EQ(array.lineQuota(1), 256u);
    EXPECT_EQ(array.wayQuota(0), 0u); // no per-set quota
}

TEST(GlobalOccupancyManager, TracksOccupancyViaHooks)
{
    // Insert and invalidate are the points where the whole-array
    // counts the victim rule reads move.
    CacheArray array(4, 2, 64, CapacityPolicy::GlobalOccupancy,
                     {0.5, 0.5});
    array.insert(0x0, 0, false);
    array.insert(0x40, 0, false);
    array.insert(0x80, 1, false);
    array.invalidate(0x0);
    EXPECT_EQ(array.trackedOccupancy(0), 1u);
    EXPECT_EQ(array.trackedOccupancy(1), 1u);
}

TEST(GlobalOccupancyManager, VictimFromGloballyOverQuotaThread)
{
    // Thread 1 holds 3 of 4 lines: over its quota of 2.
    std::vector<std::uint64_t> quotas = ref::quotas({0.5, 0.5}, 4);
    std::vector<std::uint64_t> occ = {1, 3};
    std::vector<CacheLine> set = {line(0, 1), line(1, 5), line(1, 2),
                                  line(1, 9)};
    // Thread 0's line is LRU in the set, but thread 0 is under quota:
    // thread 1's set-LRU line (index 2) goes instead.
    EXPECT_EQ(ref::globalOccupancyVictim(set, quotas, occ), 2u);
}

TEST(GlobalOccupancyManager, NoPerSetProtection)
{
    // The flexibility trade-off: thread 0 is under its global quota,
    // so plain LRU applies and it can lose its only line in this set
    // to the requester -- the monotonicity hole of Section 4.3.
    std::vector<std::uint64_t> quotas = ref::quotas({0.5, 0.5}, 100);
    std::vector<std::uint64_t> occ = {1, 3};
    std::vector<CacheLine> set = {line(0, 1), line(1, 5), line(1, 7),
                                  line(1, 9)};
    EXPECT_EQ(ref::globalOccupancyVictim(set, quotas, occ), 0u);
}

TEST(GlobalOccupancyManager, InvalidFirst)
{
    std::vector<std::uint64_t> quotas = ref::quotas({1.0}, 10);
    std::vector<std::uint64_t> occ = {1};
    std::vector<CacheLine> set = {line(0, 3), line(0, 1, false)};
    EXPECT_EQ(ref::globalOccupancyVictim(set, quotas, occ), 1u);
}

TEST(GlobalOccupancyManager, CacheArrayDrivesTheHooks)
{
    CacheArray array(4, 2, 64, CapacityPolicy::GlobalOccupancy,
                     {0.5, 0.5});

    array.insert(0x0, 0, false);
    array.insert(0x40, 1, false);
    EXPECT_EQ(array.trackedOccupancy(0), 1u);
    EXPECT_EQ(array.trackedOccupancy(1), 1u);

    // Fill set 0's second way, then displace: one line is evicted so
    // the tracked total equals the number of resident lines.
    array.insert(0x0 + 64 * 4, 1, false);
    array.insert(0x0 + 64 * 8, 1, false); // evicts set 0's LRU
    EXPECT_EQ(array.trackedOccupancy(0) + array.trackedOccupancy(1), 3u);

    array.invalidate(0x40);
    EXPECT_EQ(array.trackedOccupancy(0) + array.trackedOccupancy(1), 2u);
}

TEST(GlobalOccupancyManager, OverAllocationFatal)
{
    EXPECT_EXIT((CacheArray{4, 2, 64, CapacityPolicy::GlobalOccupancy,
                            {0.6, 0.6}}),
                testing::ExitedWithCode(1), "over-allocated");
}

} // namespace
} // namespace vpc
