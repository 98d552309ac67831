/**
 * @file
 * Randomized-trace golden differential for the structure-of-arrays
 * CacheArray (DESIGN.md 5e).
 *
 * CacheArray computes victims with bitmask arithmetic over its
 * incrementally maintained ownership masks.  This test drives a
 * CacheArray and an array-of-structures reference model (which applies
 * the line-by-line rules of reference_policies.hh for every victim)
 * through the same randomized trace of lookups, fills, dirty-marks and
 * invalidations, asserting at every step:
 *
 *  - identical victim ways (via the setVictimAudit tap, replayed
 *    through the reference rule on the pre-overwrite lines);
 *  - identical evictions (valid/dirty/address/owner);
 *  - identical per-thread occupancy.
 *
 * Covered policies: global LRU, the VPC capacity manager (including
 * the multi-over-quota fairness refinement and a share update in the
 * middle of a trace) and the flexible whole-cache occupancy manager.
 *
 * Every differential runs twice — once with vec::forceScalar set (the
 * scalar reference bodies in sim/vec.hh) and once on the compiled
 * vector path — so the SIMD tag-match and victim scans are proven
 * decision-identical to the scalar specification at runtime, not just
 * by build configuration.  Odd-way geometries (3, 5, 6 ways: below,
 * just above and 1.5x the 4-lane vector width) cover the masked-tail
 * and padding edge cases of the vectorized scans.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"
#include "reference_policies.hh"
#include "sim/random.hh"
#include "sim/vec.hh"

namespace vpc
{
namespace
{

/**
 * Array-of-structures reference cache: the pre-SoA CacheArray
 * semantics, with every victim chosen by the reference rules from its
 * own quota table and whole-cache occupancy counts.
 */
class RefArray
{
  public:
    RefArray(std::uint64_t sets, unsigned ways, unsigned line_bytes,
             CapacityPolicy policy = CapacityPolicy::Lru,
             const std::vector<double> &betas = {},
             unsigned index_shift = 0)
        : sets_(sets), ways_(ways), lineBytes_(line_bytes),
          indexShift_(index_shift), policy_(policy),
          quotas_(ref::quotas(betas, quotaUnit())),
          occ_(betas.size(), 0), lines_(sets * ways)
    {
    }

    /** The reference rule's victim for a fill of @p set by @p t. */
    unsigned
    victim(std::span<const CacheLine> set, ThreadId t) const
    {
        return ref::victim(policy_, set, t, quotas_, occ_);
    }

    /** Thread @p t's new share, in the same quota unit. */
    void
    setShare(ThreadId t, double beta)
    {
        quotas_.at(t) = ref::quota(beta, quotaUnit());
    }

    std::uint64_t quota(ThreadId t) const { return quotas_.at(t); }

    bool
    lookup(Addr addr, bool touch, ThreadId t)
    {
        (void)t;
        std::uint64_t s = setIndex(addr);
        Addr tag = tagOf(addr);
        for (unsigned w = 0; w < ways_; ++w) {
            CacheLine &l = line(s, w);
            if (l.valid && l.tag == tag) {
                if (touch)
                    l.lastUse = ++useClock_;
                return true;
            }
        }
        return false;
    }

    /** Insert; @p victim_out receives the chosen way. */
    Eviction
    insert(Addr addr, ThreadId t, bool dirty, unsigned &victim_out)
    {
        std::uint64_t s = setIndex(addr);
        std::span<const CacheLine> set{&lines_[s * ways_], ways_};
        unsigned w = victim(set, t);
        victim_out = w;
        CacheLine &l = line(s, w);
        Eviction ev;
        if (l.valid) {
            ev.valid = true;
            ev.dirty = l.dirty;
            ev.owner = l.owner;
            Addr low = (addr >> lineShift())
                & ((Addr{1} << indexShift_) - 1);
            ev.lineAddr = (((l.tag * sets_ + s) << indexShift_) | low)
                * lineBytes_;
            release(l.owner);
        }
        l.tag = tagOf(addr);
        l.valid = true;
        l.dirty = dirty;
        l.owner = t;
        l.lastUse = ++useClock_;
        if (t < occ_.size())
            ++occ_[t];
        return ev;
    }

    bool
    markDirty(Addr addr, ThreadId t)
    {
        (void)t;
        std::uint64_t s = setIndex(addr);
        Addr tag = tagOf(addr);
        for (unsigned w = 0; w < ways_; ++w) {
            CacheLine &l = line(s, w);
            if (l.valid && l.tag == tag) {
                l.dirty = true;
                l.lastUse = ++useClock_;
                return true;
            }
        }
        return false;
    }

    void
    invalidate(Addr addr)
    {
        std::uint64_t s = setIndex(addr);
        Addr tag = tagOf(addr);
        for (unsigned w = 0; w < ways_; ++w) {
            CacheLine &l = line(s, w);
            if (l.valid && l.tag == tag) {
                l.valid = false;
                l.dirty = false;
                release(l.owner);
                return;
            }
        }
    }

    std::uint64_t
    occupancy(ThreadId t) const
    {
        std::uint64_t n = 0;
        for (const CacheLine &l : lines_) {
            if (l.valid && l.owner == t)
                ++n;
        }
        return n;
    }

  private:
    unsigned lineShift() const { return log2i(lineBytes_); }

    /** Ways per set under Vpc, lines of the cache otherwise. */
    std::uint64_t
    quotaUnit() const
    {
        return policy_ == CapacityPolicy::GlobalOccupancy
            ? sets_ * ways_ : ways_;
    }

    void
    release(ThreadId owner)
    {
        if (owner < occ_.size() && occ_[owner] > 0)
            --occ_[owner];
    }

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr / lineBytes_ >> indexShift_) % sets_;
    }

    Addr
    tagOf(Addr addr) const
    {
        return (addr / lineBytes_ >> indexShift_) / sets_;
    }

    CacheLine &line(std::uint64_t s, unsigned w)
    {
        return lines_[s * ways_ + w];
    }

    std::uint64_t sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned indexShift_;
    CapacityPolicy policy_;
    std::vector<std::uint64_t> quotas_;
    std::vector<std::uint64_t> occ_; //!< whole-cache lines per thread
    std::vector<CacheLine> lines_;
    std::uint64_t useClock_ = 0;
};

struct Geometry
{
    std::uint64_t sets = 16;
    unsigned ways = 4;
    unsigned lineBytes = 64;
    unsigned indexShift = 0;
};

/**
 * Run @p body under both vec dispatch modes: scalar-forced first,
 * then the compiled vector path.  @p body must build fresh arrays on
 * every call (the mode switch is runtime state, so one binary proves
 * both paths).  Restores the default (vector) mode on exit.
 */
template <class Body>
void
forEachVecMode(Body &&body)
{
    for (bool scalar : {true, false}) {
        vec::forceScalar = scalar;
        SCOPED_TRACE(scalar ? "vec mode: forced scalar"
                            : "vec mode: native");
        body();
        if (::testing::Test::HasFatalFailure())
            break;
    }
    vec::forceScalar = false;
}

/**
 * Drive both arrays through @p steps random operations and compare
 * every replacement decision and the occupancy state after each one.
 */
void
runDifferential(CacheArray &soa, RefArray &ref, ThreadId threads,
                const Geometry &g, std::uint64_t seed,
                std::uint64_t steps)
{
    // Footprint ~4x the cache so sets run full and victims matter.
    const Addr span = g.sets * g.ways * g.lineBytes * 4;

    // The audit tap sees the SoA array's pre-overwrite lines and its
    // chosen way; replaying those exact lines through the reference
    // rule checks the mask arithmetic on the identical input, apart
    // from any divergence in the two arrays' line state.
    unsigned soa_victim = 0;
    soa.setVictimAudit([&](std::span<const CacheLine> set, ThreadId t,
                           unsigned way) {
        soa_victim = way;
        EXPECT_EQ(ref.victim(set, t), way)
            << "mask-based victim diverges from the reference rule";
    });

    Rng rng(seed);
    for (std::uint64_t i = 0; i < steps; ++i) {
        ThreadId t = static_cast<ThreadId>(rng.below(threads));
        Addr addr =
            (rng.below(static_cast<std::uint32_t>(span / g.lineBytes))
             * static_cast<Addr>(g.lineBytes))
            + rng.below(g.lineBytes);
        unsigned op = rng.below(10);
        if (op < 6) {
            // Access: fill on miss, like the cache models do.
            bool hit_s = soa.lookup(addr, true, t);
            bool hit_r = ref.lookup(addr, true, t);
            ASSERT_EQ(hit_s, hit_r) << "hit divergence at step " << i;
            if (!hit_s) {
                bool dirty = rng.below(2) != 0;
                unsigned ref_victim = 0;
                Eviction es = soa.insert(addr, t, dirty);
                Eviction er = ref.insert(addr, t, dirty, ref_victim);
                ASSERT_EQ(soa_victim, ref_victim)
                    << "victim way divergence at step " << i;
                ASSERT_EQ(es.valid, er.valid) << "step " << i;
                ASSERT_EQ(es.dirty, er.dirty) << "step " << i;
                ASSERT_EQ(es.lineAddr, er.lineAddr) << "step " << i;
                ASSERT_EQ(es.owner, er.owner) << "step " << i;
            }
        } else if (op < 8) {
            ASSERT_EQ(soa.markDirty(addr, t), ref.markDirty(addr, t))
                << "step " << i;
        } else if (op < 9) {
            soa.invalidate(addr);
            ref.invalidate(addr);
        } else {
            // Untouched probe (no LRU update on either side).
            ASSERT_EQ(soa.lookup(addr, false, t),
                      ref.lookup(addr, false, t))
                << "step " << i;
        }
        for (ThreadId j = 0; j < threads; ++j) {
            ASSERT_EQ(soa.occupancy(j), ref.occupancy(j))
                << "occupancy divergence for thread " << j
                << " at step " << i;
            ASSERT_EQ(soa.trackedOccupancy(j), ref.occupancy(j))
                << "tracked occupancy drift for thread " << j
                << " at step " << i;
        }
    }
    soa.setVictimAudit(nullptr);
}

TEST(SoaOracle, GlobalLru)
{
    forEachVecMode([] {
        Geometry g;
        CacheArray soa(g.sets, g.ways, g.lineBytes);
        RefArray ref(g.sets, g.ways, g.lineBytes);
        runDifferential(soa, ref, 4, g, 0xA11CE, 20'000);
    });
}

TEST(SoaOracle, VpcCapacityManager)
{
    // Unequal shares: thread 0 holds half the ways, 3 gets none
    // (always over any quota as soon as it owns a line), so both
    // victim conditions and the fallback paths are exercised.
    forEachVecMode([] {
        Geometry g;
        std::vector<double> betas = {0.5, 0.25, 0.25, 0.0};
        CacheArray soa(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                       betas);
        RefArray ref(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                     betas);
        runDifferential(soa, ref, 4, g, 0xB0B, 20'000);
    });
}

TEST(SoaOracle, VpcFairnessRefinement)
{
    // Small quotas push several threads over-allocation at once, so
    // condition 1 repeatedly selects among multiple threads' lines
    // (the globally-LRU fairness refinement).
    forEachVecMode([] {
        Geometry g;
        g.ways = 8;
        std::vector<double> betas = {0.125, 0.125, 0.125, 0.125};
        CacheArray soa(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                       betas);
        RefArray ref(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                     betas);
        runDifferential(soa, ref, 4, g, 0xFA12, 20'000);
    });
}

TEST(SoaOracle, VpcShareUpdateMidTrace)
{
    // A capacity share rewritten halfway through a trace (the VPC
    // controller's run-time path) must steer the replacements that
    // follow identically on both sides, not just update the quota:
    // thread 0 shrinks below the lines it holds and thread 3 grows
    // from nothing, so who is over quota flips in many sets at once.
    forEachVecMode([] {
        Geometry g;
        g.ways = 8;
        std::vector<double> betas = {0.5, 0.25, 0.25, 0.0};
        CacheArray soa(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                       betas);
        RefArray ref(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                     betas);
        runDifferential(soa, ref, 4, g, 0x5A4E, 10'000);
        if (::testing::Test::HasFatalFailure())
            return;
        for (auto [t, beta] : {std::pair<ThreadId, double>{0, 0.125},
                               std::pair<ThreadId, double>{3, 0.375}}) {
            soa.setShare(t, beta);
            ref.setShare(t, beta);
        }
        for (ThreadId t = 0; t < 4; ++t)
            ASSERT_EQ(soa.wayQuota(t), ref.quota(t)) << "thread " << t;
        ASSERT_EQ(soa.wayQuota(0), 1u);
        ASSERT_EQ(soa.wayQuota(3), 3u);
        runDifferential(soa, ref, 4, g, 0x5A4F, 10'000);
    });
}

TEST(SoaOracle, GlobalOccupancyManager)
{
    forEachVecMode([] {
        Geometry g;
        std::vector<double> betas = {0.5, 0.25, 0.125, 0.125};
        CacheArray soa(g.sets, g.ways, g.lineBytes,
                       CapacityPolicy::GlobalOccupancy, betas);
        RefArray ref(g.sets, g.ways, g.lineBytes,
                     CapacityPolicy::GlobalOccupancy, betas);
        runDifferential(soa, ref, 4, g, 0xCAFE, 20'000);
    });
}

TEST(SoaOracle, BankInterleavedIndexShift)
{
    // A banked array discards interleave bits before set indexing;
    // the eviction-address reconstruction must agree too.
    forEachVecMode([] {
        Geometry g;
        g.indexShift = 2;
        std::vector<double> betas = {0.5, 0.5};
        CacheArray soa(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                       betas, g.indexShift);
        RefArray ref(g.sets, g.ways, g.lineBytes, CapacityPolicy::Vpc,
                     betas, g.indexShift);
        runDifferential(soa, ref, 2, g, 0x5EED, 20'000);
    });
}

TEST(SoaOracle, OddWaysLru)
{
    // Associativities off the vector-width grid: 3 (below one
    // 4-lane vector), 5 (one full vector + 1-way tail) and 6.  These
    // hit the masked-tail bits and tail-padding loads of eqMask64 /
    // minIndex64 that power-of-two geometries never exercise.
    for (unsigned ways : {3u, 5u, 6u}) {
        SCOPED_TRACE("ways=" + std::to_string(ways));
        forEachVecMode([ways] {
            Geometry g;
            g.ways = ways;
            CacheArray soa(g.sets, g.ways, g.lineBytes);
            RefArray ref(g.sets, g.ways, g.lineBytes);
            runDifferential(soa, ref, 4, g, 0x0DD + ways, 20'000);
        });
    }
}

TEST(SoaOracle, OddWaysVpcCapacity)
{
    // The same off-grid geometries under the VPC capacity manager,
    // whose condition-1/2 victim scans run minIndex64 over sparse
    // owner masks (arbitrary subsets of a non-multiple-width set).
    for (unsigned ways : {3u, 5u, 6u}) {
        SCOPED_TRACE("ways=" + std::to_string(ways));
        forEachVecMode([ways] {
            Geometry g;
            g.ways = ways;
            std::vector<double> betas = {0.34, 0.33, 0.33, 0.0};
            CacheArray soa(g.sets, g.ways, g.lineBytes,
                           CapacityPolicy::Vpc, betas);
            RefArray ref(g.sets, g.ways, g.lineBytes,
                         CapacityPolicy::Vpc, betas);
            runDifferential(soa, ref, 4, g, 0x0DD1 + ways, 20'000);
        });
    }
}

} // namespace
} // namespace vpc
