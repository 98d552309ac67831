/**
 * @file
 * Unit tests for the VPC Capacity Manager (Section 4.2): the quotas
 * CacheArray derives from the shares, and its victims on hand-built
 * sets, each also checked against the reference rule of
 * reference_policies.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
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

/**
 * The way a one-set CacheArray under @p policy evicts when
 * @p requester fills a set in the state of @p set: the same owners and
 * validity per way, with the lines' recency in lastUse order.
 */
unsigned
arrayVictim(CapacityPolicy policy, const std::vector<double> &betas,
            const std::vector<CacheLine> &set, ThreadId requester)
{
    const auto ways = static_cast<unsigned>(set.size());
    CacheArray a(1, ways, 64, policy, betas);
    for (unsigned w = 0; w < ways; ++w)
        a.insert(w * 64, set[w].owner, false); // fills way w
    std::vector<unsigned> by_use(ways);
    std::iota(by_use.begin(), by_use.end(), 0u);
    std::sort(by_use.begin(), by_use.end(), [&](unsigned x, unsigned y) {
        return set[x].lastUse < set[y].lastUse;
    });
    for (unsigned w : by_use)
        a.lookup(w * 64, true, set[w].owner);
    for (unsigned w = 0; w < ways; ++w) {
        if (!set[w].valid)
            a.invalidate(w * 64);
    }
    unsigned victim = ways;
    a.setVictimAudit([&](std::span<const CacheLine>, ThreadId,
                         unsigned way) { victim = way; });
    a.insert(ways * 64, requester, false);
    return victim;
}

/**
 * The reference VPC victim for shares @p betas of a set of
 * set.size() ways, checked against CacheArray's choice.
 */
unsigned
vpcVictim(const std::vector<double> &betas,
          const std::vector<CacheLine> &set, ThreadId requester)
{
    unsigned spec =
        ref::vpcVictim(set, requester, ref::quotas(betas, set.size()));
    EXPECT_EQ(arrayVictim(CapacityPolicy::Vpc, betas, set, requester),
              spec) << "CacheArray disagrees with the reference rule";
    return spec;
}

TEST(VpcCapacityManager, QuotasFromBetas)
{
    CacheArray even(1, 32, 64, CapacityPolicy::Vpc,
                    {0.25, 0.25, 0.25, 0.25});
    for (ThreadId t = 0; t < 4; ++t)
        EXPECT_EQ(even.wayQuota(t), 8u);
    CacheArray uneven(1, 32, 64, CapacityPolicy::Vpc,
                      {0.5, 0.1, 0.1, 0.1});
    EXPECT_EQ(uneven.wayQuota(0), 16u);
    EXPECT_EQ(uneven.wayQuota(1), 3u);
    // The reference rules derive the same quotas.
    EXPECT_EQ(ref::quotas({0.5, 0.1, 0.1, 0.1}, 32),
              (std::vector<std::uint64_t>{16, 3, 3, 3}));
}

TEST(VpcCapacityManager, InvalidLinesUsedFirst)
{
    std::vector<CacheLine> set = {line(0, 1), line(0, 2),
                                  line(1, 3, false), line(1, 4)};
    EXPECT_EQ(vpcVictim({0.5, 0.5}, set, 0), 2u);
}

TEST(VpcCapacityManager, Condition1TakesFromOverQuotaThread)
{
    // Quotas: 1 way each of 4.  Thread 1 holds 3 ways (over quota);
    // thread 0 requests: the victim must be thread 1's LRU line.
    std::vector<CacheLine> set = {line(0, 10), line(1, 5), line(1, 2),
                                  line(1, 7)};
    // lastUse 2 is thread 1's LRU.
    EXPECT_EQ(vpcVictim({0.25, 0.25, 0.25, 0.25}, set, 0), 2u);
}

TEST(VpcCapacityManager, Condition1NeverDropsThreadBelowQuota)
{
    // Thread 1 exactly at quota (2 of 4 with beta=.5): its lines are
    // protected; requester (over quota itself) loses its own LRU.
    std::vector<CacheLine> set = {line(0, 1), line(0, 9), line(1, 2),
                                  line(1, 3)};
    // Thread 0 at quota too -> condition 2: requester's own LRU.
    EXPECT_EQ(vpcVictim({0.5, 0.5}, set, 0), 0u);
}

TEST(VpcCapacityManager, Condition2MatchesPrivateCacheReplacement)
{
    std::vector<CacheLine> set = {line(0, 8), line(0, 4), line(1, 1),
                                  line(1, 2)};
    // All at quota; thread 1 requests -> its own LRU (index 2),
    // exactly what a 2-way private cache would replace.
    EXPECT_EQ(vpcVictim({0.5, 0.5}, set, 1), 2u);
}

TEST(VpcCapacityManager, FairnessPicksGloballyLruAmongOverQuota)
{
    // Both threads over a 1-way quota; the globally LRU over-quota
    // line goes, regardless of owner.
    std::vector<CacheLine> set = {line(0, 5), line(0, 9), line(1, 3),
                                  line(1, 8)};
    EXPECT_EQ(vpcVictim({0.25, 0.25, 0.25, 0.25}, set, 2), 2u);
}

TEST(VpcCapacityManager, RequesterOverQuotaReplacesItself)
{
    // Requester holds 3 of 4 ways with quota 2; other thread within
    // quota.  Condition 1 applies to the requester itself.
    std::vector<CacheLine> set = {line(0, 5), line(0, 1), line(0, 9),
                                  line(1, 3)};
    EXPECT_EQ(vpcVictim({0.5, 0.25, 0.25, 0.0}, set, 0), 1u);
}

TEST(VpcCapacityManager, ZeroShareThreadAlwaysOverQuota)
{
    // A thread with beta=0 occupying any way is over quota, so its
    // lines are always reclaimable.
    std::vector<CacheLine> set = {line(0, 1), line(0, 2), line(0, 3),
                                  line(1, 99)};
    EXPECT_EQ(vpcVictim({1.0, 0.0}, set, 0), 3u);
}

TEST(VpcCapacityManager, UnallocatedWaysDistributedByLru)
{
    // betas sum to 0.5 of 4 ways: 2 ways unallocated.  Whoever uses
    // them is over quota and competes by recency.
    std::vector<CacheLine> set = {line(0, 4), line(0, 6), line(1, 2),
                                  line(1, 8)};
    // Both over quota (2 > 1); globally LRU over-quota line is idx 2.
    EXPECT_EQ(vpcVictim({0.25, 0.25}, set, 0), 2u);
}

TEST(VpcCapacityManager, ShareUpdate)
{
    CacheArray a(1, 8, 64, CapacityPolicy::Vpc, {0.5, 0.5});
    EXPECT_EQ(a.wayQuota(0), 4u);
    a.setShare(0, 0.25);
    EXPECT_EQ(a.wayQuota(0), 2u);
}

TEST(VpcCapacityManager, OverAllocationFatal)
{
    EXPECT_EXIT((CacheArray{1, 8, 64, CapacityPolicy::Vpc, {0.7, 0.7}}),
                testing::ExitedWithCode(1), "over-allocated");
}

TEST(VpcCapacityManager, ShareOutOfRangeFatal)
{
    EXPECT_EXIT((CacheArray{1, 8, 64, CapacityPolicy::Vpc, {1.5, 0.0}}),
                testing::ExitedWithCode(1), "out of \\[0,1\\]");
}

TEST(LruReplacement, PrefersInvalidThenLru)
{
    std::vector<CacheLine> set = {line(0, 5), line(1, 2, false),
                                  line(0, 1)};
    EXPECT_EQ(ref::lruVictim(set), 1u);
    EXPECT_EQ(arrayVictim(CapacityPolicy::Lru, {}, set, 0), 1u);
    set[1].valid = true;
    EXPECT_EQ(ref::lruVictim(set), 2u);
    EXPECT_EQ(arrayVictim(CapacityPolicy::Lru, {}, set, 0), 2u);
}

} // namespace
} // namespace vpc
