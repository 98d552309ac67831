/**
 * @file
 * Randomized property tests for the VPC Capacity Manager's reference
 * victim rule (reference_policies.hh), which soa_oracle_test holds
 * CacheArray to on every replacement.
 *
 * For thousands of randomly generated set states, the victim choice
 * must satisfy the Section 4.2 invariants:
 *
 *  1. invalid ways are always consumed first;
 *  2. a valid victim owned by thread j != requester implies j holds
 *     MORE than its quota in the set (taking the line cannot drop j
 *     below its allocation);
 *  3. when no thread is over quota, the victim is the requester's own
 *     LRU line (private-cache-equivalent replacement);
 *  4. among over-quota candidates the globally LRU line is chosen
 *     (the fairness refinement);
 *  5. a thread occupying at most its quota never loses a line to
 *     another thread (the capacity guarantee).
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "reference_policies.hh"
#include "sim/random.hh"

namespace vpc
{
namespace
{

struct Scenario
{
    unsigned ways;
    std::vector<double> betas;
};

class CapacitySweep : public ::testing::TestWithParam<Scenario>
{};

TEST_P(CapacitySweep, VictimSatisfiesAllInvariants)
{
    const Scenario sc = GetParam();
    const auto threads = static_cast<unsigned>(sc.betas.size());
    const std::vector<std::uint64_t> quota =
        ref::quotas(sc.betas, sc.ways);
    Rng rng(0xbeef + sc.ways, threads);

    for (unsigned trial = 0; trial < 4000; ++trial) {
        std::vector<CacheLine> set(sc.ways);
        bool any_invalid = false;
        for (CacheLine &line : set) {
            line.valid = rng.chance(0.9);
            line.owner = rng.below(threads);
            line.lastUse = rng.below(1'000'000);
            any_invalid |= !line.valid;
        }
        ThreadId requester = rng.below(threads);
        // Ensure the requester owns at least one line so condition 2
        // always has a fallback (the system maintains this invariant:
        // the requester is filling, so it either finds an over-quota
        // victim or replaces itself).
        if (!any_invalid) {
            bool owns = false;
            for (const CacheLine &line : set)
                owns |= line.valid && line.owner == requester;
            if (!owns)
                set[rng.below(sc.ways)].owner = requester;
        }

        unsigned v = ref::vpcVictim(set, requester, quota);
        ASSERT_LT(v, sc.ways);

        // (1) invalid first.
        if (any_invalid) {
            EXPECT_FALSE(set[v].valid);
            continue;
        }

        std::vector<unsigned> occ(threads, 0);
        for (const CacheLine &line : set)
            ++occ[line.owner];
        bool any_over = false;
        for (ThreadId t = 0; t < threads; ++t)
            any_over |= occ[t] > quota[t];

        ThreadId owner = set[v].owner;
        if (owner != requester) {
            // (2) only over-quota threads lose lines to others.
            EXPECT_GT(occ[owner], quota[owner]);
        }
        if (!any_over) {
            // (3) private-equivalent: requester's own LRU line.
            EXPECT_EQ(owner, requester);
            std::uint64_t own_lru =
                std::numeric_limits<std::uint64_t>::max();
            for (const CacheLine &line : set) {
                if (line.owner == requester)
                    own_lru = std::min(own_lru, line.lastUse);
            }
            EXPECT_EQ(set[v].lastUse, own_lru);
        } else {
            // (4) globally LRU among over-quota lines.
            std::uint64_t best =
                std::numeric_limits<std::uint64_t>::max();
            for (const CacheLine &line : set) {
                if (occ[line.owner] > quota[line.owner])
                    best = std::min(best, line.lastUse);
            }
            EXPECT_GT(occ[owner], quota[owner]);
            EXPECT_EQ(set[v].lastUse, best);
        }
        // (5) protected threads never shrink below quota.
        if (occ[owner] <= quota[owner]) {
            EXPECT_EQ(owner, requester);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CapacitySweep,
    ::testing::Values(
        Scenario{4, {0.25, 0.25, 0.25, 0.25}},
        Scenario{8, {0.5, 0.5}},
        Scenario{16, {0.5, 0.25, 0.25, 0.0}},
        Scenario{32, {0.25, 0.25, 0.25, 0.25}},
        Scenario{32, {0.5, 0.1, 0.1, 0.1}},  // Figure 1b allocation
        Scenario{8, {0.125, 0.125, 0.25, 0.5}}),
    [](const auto &info) {
        return "ways" + std::to_string(info.param.ways) + "n" +
               std::to_string(info.param.betas.size()) + "c" +
               std::to_string(info.index);
    });

} // namespace
} // namespace vpc
