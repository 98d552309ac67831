/**
 * @file
 * Unit tests for the functional set-associative array.
 */

#include <gtest/gtest.h>

#include <utility>

#include "cache/cache_array.hh"

namespace vpc
{
namespace
{

CacheArray
makeArray(std::uint64_t sets = 4, unsigned ways = 2)
{
    return CacheArray(sets, ways, 64);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray a = makeArray();
    EXPECT_FALSE(a.lookup(0x1000, true, 0));
    a.insert(0x1000, 0, false);
    EXPECT_TRUE(a.lookup(0x1000, true, 0));
    EXPECT_EQ(a.hitCount(), 1u);
    EXPECT_EQ(a.missCount(), 1u);
}

TEST(CacheArray, SubLineAddressesHitSameLine)
{
    CacheArray a = makeArray();
    a.insert(0x1000, 0, false);
    EXPECT_TRUE(a.lookup(0x103F, true, 0));
    EXPECT_FALSE(a.lookup(0x1040, true, 0));
}

TEST(CacheArray, LruEvictionOrder)
{
    CacheArray a = makeArray(1, 2); // one set, two ways
    a.insert(0x0, 0, false);
    a.insert(0x40, 0, false);
    a.lookup(0x0, true, 0); // make 0x0 MRU
    Eviction ev = a.insert(0x80, 0, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x40u);
    EXPECT_TRUE(a.lookup(0x0, false, 0));
    EXPECT_FALSE(a.lookup(0x40, false, 0));
}

TEST(CacheArray, EvictionReportsDirtyAndOwner)
{
    CacheArray a = makeArray(1, 1);
    a.insert(0x0, 3, true);
    Eviction ev = a.insert(0x40, 0, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.owner, 3u);
    EXPECT_EQ(ev.lineAddr, 0x0u);
}

TEST(CacheArray, EvictedAddressReconstruction)
{
    CacheArray a = makeArray(4, 1);
    Addr addr = 0x40 * (4 * 7 + 2); // tag 7, set 2
    a.insert(addr, 0, false);
    Eviction ev = a.insert(addr + 0x40 * 4 * 5, 0, false); // same set
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, addr);
}

TEST(CacheArray, MarkDirty)
{
    CacheArray a = makeArray();
    a.insert(0x1000, 0, false);
    EXPECT_TRUE(a.markDirty(0x1000, 0));
    EXPECT_FALSE(a.markDirty(0x2000, 0));
    Eviction ev = a.insert(0x1000 + 64 * 4 * 1, 0, false);
    (void)ev;
}

TEST(CacheArray, Invalidate)
{
    CacheArray a = makeArray();
    a.insert(0x1000, 0, false);
    a.invalidate(0x1000);
    EXPECT_FALSE(a.lookup(0x1000, false, 0));
}

TEST(CacheArray, OccupancyPerThread)
{
    CacheArray a = makeArray(1, 4);
    a.insert(0x0, 0, false);
    a.insert(0x40 * 4, 0, false);
    a.insert(0x80 * 4, 1, false);
    EXPECT_EQ(a.setOccupancy(0x0, 0), 2u);
    EXPECT_EQ(a.setOccupancy(0x0, 1), 1u);
    EXPECT_EQ(a.occupancy(0), 2u);
    EXPECT_EQ(a.occupancy(1), 1u);
}

TEST(CacheArray, UntouchedLookupDoesNotCountStats)
{
    CacheArray a = makeArray();
    a.lookup(0x1000, false, 0);
    EXPECT_EQ(a.missCount(), 0u);
}

TEST(CacheArray, IndexShiftSkipsInterleaveBits)
{
    // A bank of a 2-way interleaved cache sees only even line
    // numbers; with index_shift=1 the constant bit is discarded so
    // every set is usable.
    CacheArray a(4, 1, 64, CapacityPolicy::Lru, {}, 1);
    // Lines 0 and 8 (addresses 0x0, 0x200): (0>>1)%4 == (8>>1)%4 == 0.
    a.insert(0x0, 0, false);
    Eviction ev = a.insert(0x200, 0, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x0u);
    // Line 4 (address 0x100): (4>>1)%4 == 2 -- a different set.
    a.insert(0x100, 0, false);
    EXPECT_TRUE(a.lookup(0x200, false, 0));
    EXPECT_TRUE(a.lookup(0x100, false, 0));
}

TEST(CacheArray, BankStrideFillsEverySet)
{
    // Regression: without the shift, a bank fed every 2nd line left
    // half its sets permanently empty (halving effective capacity).
    const std::uint64_t sets = 8;
    CacheArray a(sets, 1, 64, CapacityPolicy::Lru, {}, 1);
    for (std::uint64_t i = 0; i < sets; ++i) {
        Eviction ev = a.insert(2 * 64 * i, 0, false); // even lines
        EXPECT_FALSE(ev.valid) << "line " << i;
    }
    for (std::uint64_t i = 0; i < sets; ++i)
        EXPECT_TRUE(a.lookup(2 * 64 * i, false, 0));
}

TEST(CacheArray, EvictionAddressRoundTripsWithShift)
{
    CacheArray a(4, 1, 64, CapacityPolicy::Lru, {}, 2);
    // Bank 3 of a 4-way interleave: line numbers 3, 19 (same set).
    Addr first = 3 * 64;
    Addr second = (3 + 16) * 64;
    a.insert(first, 0, false);
    Eviction ev = a.insert(second, 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, first);
}

TEST(CacheArray, BadGeometryIsFatal)
{
    EXPECT_EXIT(makeArray(3, 2), testing::ExitedWithCode(1),
                "power-of-two");
}

TEST(CacheArray, MoveTransfersStateAndLeavesSourceDestructible)
{
    // Copy is deleted and both move operations are defaulted; the
    // moved-from array holds only empty vectors, so destroying it
    // (without further use) must be safe.
    CacheArray a = makeArray(4, 2);
    a.insert(0x1000, 1, true);
    CacheArray b = std::move(a);
    EXPECT_TRUE(b.lookup(0x1000, false, 1));
    EXPECT_EQ(b.trackedOccupancy(1), 1u);

    CacheArray c = makeArray(4, 2);
    c = std::move(b);
    EXPECT_TRUE(c.lookup(0x1000, false, 1));
    // a and b go out of scope moved-from; the destructors must not
    // touch the transferred state.
}

} // namespace
} // namespace vpc
