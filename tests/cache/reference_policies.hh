/**
 * @file
 * Reference victim rules for the three capacity policies, written as
 * plain scans over a set's CacheLine view.
 *
 * These are the specification CacheArray's mask-based chooseVictim()
 * is checked against: soa_oracle_test replays every production
 * replacement decision through them, and the replacement, capacity
 * property and global-occupancy tests pin them to the paper.
 *
 * The VPC Capacity Manager (Section 4.2) gives thread i a virtual
 * private cache with the same number of sets as the shared cache and
 * at least beta_i * ways cache ways.  On a fill its replacement policy
 * picks, from the destination set:
 *
 *   1) the LRU line owned by a thread j occupying *more* than
 *      beta_j * ways of the set (taking it cannot drop j below its
 *      allocation, and that line would not have been resident in j's
 *      equivalent private cache anyway); else
 *   2) the requester's own LRU line (all threads sit exactly at their
 *      allocations, so this matches the private-cache replacement).
 *
 * Fairness refinement: when several threads are over-allocation, the
 * globally least-recently-used line among their lines goes, which
 * distributes the unallocated/excess ways toward threads with recent
 * reuse.
 *
 * The flexible whole-cache occupancy manager Section 4.3 contrasts
 * with it takes the set-LRU line among threads holding more than
 * beta_j of all the cache's lines, else plain LRU.  There is no
 * per-set protection: a thread within its whole-cache quota can lose
 * every way of one set, so performance monotonicity is lost
 * (bench_ablate_flexible compares the two).
 */

#ifndef VPC_TESTS_CACHE_REFERENCE_POLICIES_HH
#define VPC_TESTS_CACHE_REFERENCE_POLICIES_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cache/cache_array.hh"
#include "sim/config.hh"

namespace vpc::ref
{

/** floor(beta * unit): a way quota (unit = ways of a set) or a line
 *  quota (unit = lines of the cache). */
inline std::uint64_t
quota(double beta, std::uint64_t unit)
{
    return static_cast<std::uint64_t>(
        beta * static_cast<double>(unit) + 1e-9);
}

/** @return quota(beta_t, unit) for every thread t. */
inline std::vector<std::uint64_t>
quotas(const std::vector<double> &betas, std::uint64_t unit)
{
    std::vector<std::uint64_t> q;
    for (double beta : betas)
        q.push_back(quota(beta, unit));
    return q;
}

/** Index of the first invalid way, or the set size if all are valid. */
inline unsigned
firstInvalid(std::span<const CacheLine> set)
{
    for (unsigned w = 0; w < set.size(); ++w) {
        if (!set[w].valid)
            return w;
    }
    return static_cast<unsigned>(set.size());
}

/** Unpartitioned global LRU: first invalid way, else the LRU line. */
inline unsigned
lruVictim(std::span<const CacheLine> set)
{
    unsigned inv = firstInvalid(set);
    if (inv < set.size())
        return inv;
    unsigned lru = 0;
    for (unsigned w = 1; w < set.size(); ++w) {
        if (set[w].lastUse < set[lru].lastUse)
            lru = w;
    }
    return lru;
}

/**
 * The VPC Capacity Manager's victim for a fill by @p requester.
 *
 * @param way_quotas floor(beta_t * ways) per thread; lines of threads
 *        without an entry are never condition-1 victims
 */
inline unsigned
vpcVictim(std::span<const CacheLine> set, ThreadId requester,
          std::span<const std::uint64_t> way_quotas)
{
    unsigned inv = firstInvalid(set);
    if (inv < set.size())
        return inv;

    // Per-thread occupancy of this set.
    std::vector<std::uint64_t> occ(way_quotas.size(), 0);
    for (const CacheLine &line : set) {
        if (line.owner < occ.size())
            ++occ[line.owner];
    }

    // Condition 1: LRU line among threads over their way allocation,
    // globally LRU across all of them (the fairness refinement).
    unsigned best = static_cast<unsigned>(set.size());
    std::uint64_t best_use = std::numeric_limits<std::uint64_t>::max();
    for (unsigned w = 0; w < set.size(); ++w) {
        ThreadId j = set[w].owner;
        if (j >= occ.size() || occ[j] <= way_quotas[j])
            continue;
        if (set[w].lastUse < best_use) {
            best = w;
            best_use = set[w].lastUse;
        }
    }
    if (best < set.size())
        return best;

    // Condition 2: every owner is at (or under) its quota; take the
    // requester's own LRU line -- the same line a private cache with
    // beta_i of the ways would replace.
    best = static_cast<unsigned>(set.size());
    best_use = std::numeric_limits<std::uint64_t>::max();
    for (unsigned w = 0; w < set.size(); ++w) {
        if (set[w].owner != requester)
            continue;
        if (set[w].lastUse < best_use) {
            best = w;
            best_use = set[w].lastUse;
        }
    }
    if (best < set.size())
        return best;

    // The requester owns nothing and nobody is over quota: only
    // possible when lines are owned by threads without a share.
    return lruVictim(set);
}

/**
 * The flexible whole-cache occupancy manager's victim.
 *
 * @param line_quotas floor(beta_t * lines of the cache) per thread
 * @param occupancy lines each thread holds in the whole cache, at
 *        least as long as @p line_quotas
 */
inline unsigned
globalOccupancyVictim(std::span<const CacheLine> set,
                      std::span<const std::uint64_t> line_quotas,
                      std::span<const std::uint64_t> occupancy)
{
    unsigned inv = firstInvalid(set);
    if (inv < set.size())
        return inv;

    unsigned best = static_cast<unsigned>(set.size());
    std::uint64_t best_use = std::numeric_limits<std::uint64_t>::max();
    for (unsigned w = 0; w < set.size(); ++w) {
        ThreadId j = set[w].owner;
        if (j >= line_quotas.size() || occupancy[j] <= line_quotas[j])
            continue;
        if (set[w].lastUse < best_use) {
            best = w;
            best_use = set[w].lastUse;
        }
    }
    if (best < set.size())
        return best;
    return lruVictim(set);
}

/**
 * @return @p policy's victim for a fill by @p requester.  @p quotas
 * are in the policy's unit (ways under Vpc, lines under
 * GlobalOccupancy); @p occupancy is read only by GlobalOccupancy.
 */
inline unsigned
victim(CapacityPolicy policy, std::span<const CacheLine> set,
       ThreadId requester, std::span<const std::uint64_t> quotas,
       std::span<const std::uint64_t> occupancy)
{
    switch (policy) {
      case CapacityPolicy::Lru:
        return lruVictim(set);
      case CapacityPolicy::Vpc:
        return vpcVictim(set, requester, quotas);
      case CapacityPolicy::GlobalOccupancy:
        return globalOccupancyVictim(set, quotas, occupancy);
    }
    return static_cast<unsigned>(set.size());
}

} // namespace vpc::ref

#endif // VPC_TESTS_CACHE_REFERENCE_POLICIES_HH
