/**
 * @file
 * Private write-through L1 data cache with MSHRs.
 *
 * Matches the baseline hierarchy (Section 3.1): write-through,
 * no-write-allocate, so every committed store is forwarded to the L2
 * (where it is gathered), and L1 load misses allocate an MSHR and fetch
 * the line from the L2.  Same-line misses merge into one outstanding
 * MSHR entry; the MSHR count bounds the thread's memory-level
 * parallelism (16 for the D-cache in Table 1).
 */

#ifndef VPC_CACHE_L1_CACHE_HH
#define VPC_CACHE_L1_CACHE_HH

#include <functional>
#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/prefetcher.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace vpc
{

/** One processor's private L1 D-cache. */
class L1DCache
{
  public:
    /** Invoked when a load's data is available at the core. */
    using LoadCallback = std::function<void()>;
    /** Invoked to fetch a line from the L2 (new primary miss). */
    using MissHandler =
        std::function<void(Addr line_addr, Cycle now, bool prefetch)>;

    enum class LoadResult
    {
        Hit,     //!< data in hit_latency cycles
        Miss,    //!< MSHR allocated or merged; callback fires on fill
        Blocked  //!< all MSHRs busy and no merge possible; retry later
    };

    /**
     * @param cfg L1 geometry and timing
     * @param thread owning hardware thread
     * @param events event queue for hit-latency callbacks
     */
    L1DCache(const L1Config &cfg, ThreadId thread, EventQueue &events);

    /** Install the L2-fetch path. */
    void setMissHandler(MissHandler h) { missHandler = std::move(h); }

    /**
     * Perform a load.
     *
     * @param addr byte address
     * @param now current cycle
     * @param cb completion callback (scheduled at hit latency on a hit,
     *        or when the L2 line returns on a miss)
     * @return hit/miss/blocked
     */
    LoadResult load(Addr addr, Cycle now, LoadCallback cb);

    /**
     * @name Split load path (the core's issue stage)
     *
     * The CPU probes once with probeTouch() — exactly the tag/LRU/
     * statistics effects of load()'s internal lookup — and then either
     * completes the hit itself (completeHit() plus its fused hit lane)
     * or takes the miss path via loadMiss(), which skips the redundant
     * re-probe.  load() remains the single-call form for standalone
     * users; its hit completion is an ordinary event.
     */
    /// @{
    /** Touching probe: @return hit, with load()'s lookup side effects. */
    bool probeTouch(Addr addr) { return tags.lookup(addr, true, thread); }

    /** Count a hit whose completion the caller delivers (fused lane). */
    void completeHit() { hits.inc(); }

    /** @return the constant hit latency (the fused lane's due offset). */
    Cycle hitLatency() const { return cfg.hitLatency; }

    /** load() for an address probeTouch() just missed: no re-probe. */
    LoadResult loadMiss(Addr addr, Cycle now, LoadCallback cb);
    /// @}

    /**
     * Perform a store (write-through, no-write-allocate).  Updates the
     * L1 copy if present; the caller forwards the store to the L2.
     */
    void store(Addr addr, Cycle now);

    /** L2 critical word arrived: fill the line, wake waiting loads. */
    void fill(Addr line_addr, Cycle now);

    /** Side-effect-free probe: would a load of @p addr hit? */
    bool wouldHit(Addr addr) const;

    /** @return true if a fetch of @p addr's line is in flight. */
    bool mshrPending(Addr addr) const;

    /** @return MSHR entries currently in use. */
    unsigned mshrsInUse() const;

    /** @return prefetch lines requested from the L2. */
    std::uint64_t prefetchesIssued() const { return pfIssued.value(); }

    /** @return demand misses that merged into a prefetch in flight. */
    std::uint64_t prefetchesLateUseful() const
    {
        return pfLateUseful.value();
    }

    /** @return hits / misses / blocked-load statistics. */
    std::uint64_t hitCount() const { return hits.value(); }
    std::uint64_t missCount() const { return misses.value(); }
    std::uint64_t mergedMissCount() const { return merged.value(); }
    std::uint64_t blockedCount() const { return blocked.value(); }

    /** @return the functional array (for tests). */
    const CacheArray &array() const { return tags; }

  private:
    struct Mshr
    {
        bool valid = false;
        bool prefetch = false; //!< allocated by the prefetcher
        Addr lineAddr = 0;
        std::vector<LoadCallback> waiters;
    };

    /** Feed the prefetcher and launch accepted prefetches. */
    void maybePrefetch(Addr line_addr, Cycle now);

    /** @return index of the MSHR tracking @p line_addr, or -1. */
    int findMshr(Addr line_addr) const;

    /** @return index of a free MSHR, or -1. */
    int freeMshr() const;

    L1Config cfg;
    ThreadId thread;
    EventQueue &events;
    CacheArray tags;
    std::vector<Mshr> mshrs;
    MissHandler missHandler;
    StridePrefetcher prefetcher;
    Counter hits;
    Counter misses;
    Counter merged;
    Counter blocked;
    Counter pfIssued;
    Counter pfLateUseful;
};

} // namespace vpc

#endif // VPC_CACHE_L1_CACHE_HH
