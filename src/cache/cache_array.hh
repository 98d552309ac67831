/**
 * @file
 * Set-associative tag/state storage shared by the L1 and L2 models.
 *
 * CacheArray tracks tags, validity, dirtiness, per-line owning thread
 * and LRU ordering, and chooses victims under one CapacityPolicy:
 * global LRU (the L1 and the unpartitioned baseline), the VPC Capacity
 * Manager's per-set way quotas (Section 4.2) or the flexible
 * whole-cache occupancy quotas Section 4.3 contrasts it with.  Timing
 * is modeled elsewhere (SharedResource / L1 latency) -- this class is
 * the functional state only.
 *
 * Storage is structure-of-arrays (DESIGN.md 5e): contiguous per-line
 * tag and LRU-stamp words plus per-set packed valid/dirty bitmask
 * words and per-(thread, set) ownership way masks, so lookup() is a
 * stride-1 tag scan and victim selection is bitmask arithmetic over
 * incrementally maintained occupancy state -- no per-fill recount.
 * The per-set rules of each policy, written line by line over
 * CacheLine spans, live in tests/cache/reference_policies.hh as the
 * oracle; the differential test (tests/cache/soa_oracle_test.cc)
 * proves this implementation agrees with them on every replacement
 * decision.
 */

#ifndef VPC_CACHE_CACHE_ARRAY_HH
#define VPC_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/vec.hh"

namespace vpc
{

/**
 * One cache line's bookkeeping state, as seen by the verify layer and
 * the reference replacement rules.  The array itself does not store
 * lines in this shape; setLines() materializes them on demand.
 */
struct CacheLine
{
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    ThreadId owner = kInvalidThread;
    std::uint64_t lastUse = 0; //!< LRU timestamp (higher = more recent)
};

/** Result of an insert: what was evicted, if anything. */
struct Eviction
{
    bool valid = false;   //!< a valid line was displaced
    bool dirty = false;   //!< ... and it was dirty (needs writeback)
    Addr lineAddr = 0;    //!< address of the displaced line
    ThreadId owner = kInvalidThread;
};

/** Functional set-associative array with a capacity policy. */
class CacheArray
{
  public:
    /**
     * @param sets number of sets (power of two)
     * @param ways associativity (at most 64: way masks are one word)
     * @param line_bytes line size (power of two)
     * @param policy victim selection rule
     * @param betas capacity share beta_t per thread, each in [0, 1]
     *        and summing to at most 1; ignored under Lru.  Vpc gives
     *        thread t floor(beta_t * ways) ways of every set,
     *        GlobalOccupancy floor(beta_t * sets * ways) lines of the
     *        whole array.
     * @param index_shift line-number bits to discard before set
     *        indexing: a bank of a 2^n-way interleaved cache only
     *        sees every 2^n-th line, so those bits are constant and
     *        must not select the set (they would leave all but
     *        1/2^n of the sets unused)
     */
    CacheArray(std::uint64_t sets, unsigned ways, unsigned line_bytes,
               CapacityPolicy policy = CapacityPolicy::Lru,
               const std::vector<double> &betas = {},
               unsigned index_shift = 0);

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;
    CacheArray(CacheArray &&) = default;
    CacheArray &operator=(CacheArray &&) = default;

    /**
     * Probe for @p addr.
     *
     * @param addr byte address
     * @param touch update LRU state on hit
     * @param t thread performing the access (LRU bookkeeping)
     * @return true on hit
     */
    bool
    lookup(Addr addr, bool touch, ThreadId t)
    {
        (void)t;
        std::uint64_t s = setIndex(addr);
        Addr tag = tagOf(addr);
        // Way-parallel tag compare gated by the set's valid mask (the
        // tag plane is padded so whole-vector loads never overread).
        // At most one valid way can match, so the lowest set bit is
        // the scalar scan's first hit.
        std::uint64_t eq =
            vec::eqMask64(&tags_[s * ways_], ways_, tag) &
            validMask_[s];
        if (eq != 0) {
            if (touch) {
                stamps_[s * ways_ + ctz64(eq)] = ++useClock;
                hits.inc();
            }
            return true;
        }
        if (touch)
            misses.inc();
        return false;
    }

    /**
     * Hint the host prefetcher at the set that will service @p addr.
     * The L2 tag/stamp planes are megabytes, so the tag-pipeline
     * completion that runs several simulated cycles after admission
     * takes a host cache miss on its first touch of the set's row;
     * issuing the prefetch when the request is admitted overlaps that
     * miss with the intervening simulation work.  Observe-only: no
     * model state changes.
     */
    void
    prefetchSet(Addr addr) const
    {
        std::uint64_t s = setIndex(addr);
        __builtin_prefetch(&tags_[s * ways_]);
        __builtin_prefetch(&stamps_[s * ways_]);
        __builtin_prefetch(&validMask_[s]);
    }

    /**
     * Install the line containing @p addr, selecting a victim via the
     * capacity policy.
     *
     * @param addr byte address
     * @param t owning thread
     * @param dirty install in dirty state (write-allocate merge)
     * @return eviction information for writeback handling
     */
    Eviction insert(Addr addr, ThreadId t, bool dirty);

    /** Mark the line holding @p addr dirty. @return false on miss. */
    bool markDirty(Addr addr, ThreadId t);

    /** Invalidate the line holding @p addr if present. */
    void invalidate(Addr addr);

    /** @return number of valid lines owned by thread @p t in the set
     *          holding @p addr. */
    unsigned setOccupancy(Addr addr, ThreadId t) const;

    /** @return total valid lines owned by thread @p t. */
    std::uint64_t occupancy(ThreadId t) const;

    /**
     * @return the incrementally tracked line count for thread @p t.
     *
     * Maintained alongside every insert/evict/invalidate; the
     * GlobalOccupancy policy compares it against the line quotas, and
     * the verify layer cross-checks it against occupancy()'s full
     * array walk to prove the bookkeeping never drifts from the actual
     * ownership state (capacity conservation).
     */
    std::uint64_t
    trackedOccupancy(ThreadId t) const
    {
        return t < occTracked_.size() ? occTracked_[t] : 0;
    }

    /**
     * Update thread @p t's capacity share and recompute its quota in
     * the policy's unit.  The caller validates @p beta (the VPC
     * controller rejects out-of-range and over-allocating writes).
     */
    void setShare(ThreadId t, double beta);

    /** @return thread @p t's per-set way quota under Vpc, else 0. */
    std::uint64_t
    wayQuota(ThreadId t) const
    {
        return policy_ == CapacityPolicy::Vpc ? quota(t) : 0;
    }

    /** @return thread @p t's whole-array line quota under
     *          GlobalOccupancy, else 0. */
    std::uint64_t
    lineQuota(ThreadId t) const
    {
        return policy_ == CapacityPolicy::GlobalOccupancy ? quota(t) : 0;
    }

    /**
     * @return the lines of set @p index, materialized from the packed
     * state (verify-layer inspection and the reference rules).
     * The span aliases a scratch buffer: it is valid until the next
     * setLines() call or insert() on this array.
     */
    std::span<const CacheLine> setLines(std::uint64_t index) const;

    /**
     * Observe-only tap invoked on every insert, before the victim
     * line is overwritten: (set lines, requesting thread, victim
     * way).  The VPC capacity auditor uses it to check conditions
     * 1 and 2 of Section 4.2 on each replacement decision, and the
     * SoA differential test uses it to replay every decision through
     * the reference rules.
     */
    using VictimAudit =
        std::function<void(std::span<const CacheLine>, ThreadId,
                           unsigned)>;

    /** Install (or clear, with nullptr) the victim audit tap. */
    void setVictimAudit(VictimAudit fn) { victimAudit = std::move(fn); }

    /**
     * @name Fault-injection hooks
     *
     * faultFlipOwner() reassigns the first valid line found to thread
     * @p to without touching the tracked occupancy counters, breaking
     * capacity conservation on purpose.  faultForceNextVictim() makes
     * the next insert evict way @p way regardless of what the
     * capacity policy says, violating the Section 4.2 victim
     * conditions.  Both exist so the auditors can be proven live.
     */
    /// @{
    bool faultFlipOwner(ThreadId to);
    void faultForceNextVictim(unsigned way) { forcedVictim = way; }
    /// @}

    /** @return number of sets. */
    std::uint64_t numSets() const { return sets_; }

    /** @return associativity. */
    unsigned numWays() const { return ways_; }

    /** @return line size in bytes. */
    unsigned lineBytes() const { return lineBytes_; }

    /** @return hits observed (touched lookups only). */
    std::uint64_t hitCount() const { return hits.value(); }

    /** @return misses observed (touched lookups only). */
    std::uint64_t missCount() const { return misses.value(); }

  private:
    static unsigned
    ctz64(std::uint64_t m)
    {
        return static_cast<unsigned>(__builtin_ctzll(m));
    }

    // sets_ and lineBytes_ are validated powers of two, so indexing
    // is pure shift/mask -- no 64-bit division on the lookup path.
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> (lineShift_ + indexShift_)) & (sets_ - 1);
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr >> (lineShift_ + indexShift_ + setShift_);
    }

    /** Way mask with one bit per way of the (<= 64-way) set. */
    std::uint64_t
    fullMask() const
    {
        return ways_ == 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << ways_) - 1;
    }

    /** @return owner-way mask of (thread, set), 0 if untracked. */
    std::uint64_t
    ownerMask(ThreadId t, std::uint64_t s) const
    {
        return t < maskThreads_ ? ownerWays_[t * sets_ + s] : 0;
    }

    /** Grow the per-thread ownership mask plane to cover thread t. */
    void ensureMaskThread(ThreadId t);

    /** Way with the smallest LRU stamp among @p mask; @p mask != 0. */
    unsigned minStampWay(std::uint64_t s, std::uint64_t mask) const;

    /** Thread @p t's quota in the policy's unit; 0 without a share. */
    std::uint64_t
    quota(ThreadId t) const
    {
        return t < quotas_.size() ? quotas_[t] : 0;
    }

    /** floor(beta * the policy's quota unit). */
    std::uint64_t quotaFor(double beta) const;

    /** The capacity policy's victim way in set @p s for @p requester. */
    unsigned chooseVictim(std::uint64_t s, ThreadId requester) const;

    void bumpOcc(ThreadId t, std::int64_t delta);

    std::uint64_t sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned indexShift_;
    unsigned lineShift_ = 0; //!< log2(lineBytes_)
    unsigned setShift_ = 0;  //!< log2(sets_)
    CapacityPolicy policy_;

    //! @name Structure-of-arrays line state
    //! Per-line words, set-major: line (s, w) sits at s * ways_ + w.
    /// @{
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;  //!< LRU: higher = more recent
    std::vector<ThreadId> owners_;
    /// @}
    //! Per-set packed state words, bit w = way w.
    /// @{
    std::vector<std::uint64_t> validMask_;
    std::vector<std::uint64_t> dirtyMask_;
    /// @}
    /**
     * Ownership way masks, thread-major: bit w of
     * ownerWays_[t * sets_ + s] is set iff line (s, w) is valid and
     * owned by t.  popcount is the set occupancy the VPC capacity
     * manager recounted per fill in the AoS layout; condition 1's
     * eligible set is the union of over-quota threads' masks.  The
     * plane grows on demand as new thread ids insert.
     */
    std::vector<std::uint64_t> ownerWays_;
    ThreadId maskThreads_ = 0; //!< threads covered by ownerWays_

    std::uint64_t useClock = 0;
    /**
     * Per-thread quota, empty under Lru: ways of each set under Vpc,
     * lines of the whole array under GlobalOccupancy.
     */
    std::vector<std::uint64_t> quotas_;
    std::vector<std::uint64_t> occTracked_;
    /** Scratch backing setLines() materialization. */
    mutable std::vector<CacheLine> lineScratch_;
    VictimAudit victimAudit;
    static constexpr unsigned kNoForcedVictim = ~0u;
    unsigned forcedVictim = kNoForcedVictim;
    Counter hits;
    Counter misses;
};

} // namespace vpc

#endif // VPC_CACHE_CACHE_ARRAY_HH
