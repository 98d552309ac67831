/**
 * @file
 * Content-addressed simulation result cache.
 *
 * Every measured run of the simulator is a pure function of its
 * inputs: the kernel is deterministic (DESIGN.md 5c) and produces
 * byte-identical statistics for a given (SystemConfig, workload
 * streams, run lengths) triple.  That contract makes exact result
 * memoization sound: a run is keyed by a stable FNV-1a digest of its
 * normalized configuration, its workload (spec, base address, seed)
 * tuples, its warmup/measure lengths and a stats-schema version, and
 * a cache hit returns the stored IntervalStats / end cycle / kernel
 * counters bit-for-bit.
 *
 * Two layers:
 *
 *  - an in-process map, always available, deduplicating identical jobs
 *    within one bench invocation (the headline bench re-simulates the
 *    same private-target run for every mix a benchmark appears in);
 *    concurrent jobs computing the same key are collapsed — the first
 *    computes, the rest block and reuse its record;
 *  - an optional on-disk store (--run-cache=DIR), one versioned JSON
 *    record per key, deduplicating runs *across* invocations.  Doubles
 *    are stored as IEEE-754 bit patterns so disk round-trips are
 *    exact; malformed, truncated or version-mismatched records are
 *    treated as misses and overwritten.
 *
 * The disk store is built for many concurrent writer processes (the
 * sweep daemon, its clients' local fallbacks, parallel benches):
 * records are published by write-to-temp + rename so readers never see
 * a torn record, temp names carry the writer's pid so a janitor pass
 * on store open can reclaim temps orphaned by crashed writers
 * (gcStaleTemps), and every failed write or publish is counted in
 * storeErrors() so silent degradation (full disk, bad permissions)
 * is visible in bench output instead of vanishing into a warn line.
 *
 * Layout: records are sharded 256 ways by the first digest byte —
 * `<dir>/<2-hex>/<16-hex>.json` — so directory operations (record
 * opens, janitor scans) stay O(1)-ish under tens of thousands of
 * cached runs instead of degrading with one giant flat directory.
 * The read path also accepts the pre-shard flat layout
 * (`<dir>/<16-hex>.json`), so an old store keeps serving hits; new
 * records are always published sharded.
 *
 * Anything that can alter either the model statistics or the kernel
 * counters is part of the digest (config, shares, verify layer,
 * kernel mode, run lengths, workload identity).  The only excluded
 * field is `profile`, which is strictly observe-only and contributes
 * nothing to a cached record; profiles are therefore only reported
 * for runs that actually executed.
 */

#ifndef VPC_SYSTEM_RUN_CACHE_HH
#define VPC_SYSTEM_RUN_CACHE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/profiler.hh"
#include "system/cmp_system.hh"

namespace vpc
{

/** Bump when the digested inputs or the record layout change. */
constexpr std::uint64_t kRunCacheSchema = 3;

/**
 * Content identity of one workload stream: a vpcsim-style spec string
 * ("art", "loads", "trace:<path>", ...), the thread's address-space
 * base and the generator seed.  Building a workload from the same key
 * yields a bit-identical op stream (workload_block_test asserts it).
 */
struct WorkloadKey
{
    std::string spec;
    Addr base = 0;
    std::uint64_t seed = 0;
};

/** One fully specified, cacheable simulation job. */
struct RunJob
{
    SystemConfig config; //!< normalized by digest/run (validate())
    std::vector<WorkloadKey> workloads; //!< one per processor
    Cycle warmup = 0;
    Cycle measure = 0;
};

/** The memoized outcome of a job (everything a bench consumes). */
struct RunRecord
{
    Cycle endCycle = 0;    //!< CmpSystem::now() after the run
    IntervalStats stats;   //!< the measured interval
    KernelStats kernel;    //!< kernel work/skip counters
};

/** RunRecord plus provenance for the caller. */
struct RunResult
{
    RunRecord record;
    bool cacheHit = false;  //!< served from memory or disk
    bool hasProfile = false;//!< profile below is meaningful
    Profiler profile;       //!< merged profile (executed runs only)
};

/**
 * @return the job's content digest (64-bit FNV-1a over the normalized
 *         config, workload keys, run lengths and kRunCacheSchema)
 */
std::uint64_t runDigest(const RunJob &job);

/** In-process + optional on-disk memoization of RunRecords. */
class RunCache
{
  public:
    /**
     * @param disk_dir on-disk store directory (created if missing);
     *        empty = in-process map only
     */
    explicit RunCache(std::string disk_dir = "");

    /**
     * Return the record for @p key, computing it at most once.
     *
     * Looks up the in-process map, then the disk store; on a miss runs
     * @p compute, publishes the record to both layers and returns it.
     * Concurrent callers with the same key block until the first
     * finishes and share its record (counted as hits).
     */
    RunRecord lookupOrCompute(std::uint64_t key,
                              const std::function<RunRecord()> &compute,
                              bool *hit_out = nullptr);

    /** Probe without computing. @return true and fill @p out on hit. */
    bool probe(std::uint64_t key, RunRecord &out);

    /** @return hits served (memory, disk, or wait-for-in-flight). */
    std::uint64_t hits() const;

    /** @return jobs that had to execute. */
    std::uint64_t misses() const;

    /** @return hits served specifically from the on-disk store. */
    std::uint64_t diskHits() const;

    /**
     * @return disk-store write failures (temp create/write, publish
     *         rename, store-dir create).  A non-zero count means the
     *         cache silently degraded to compute-only for some runs.
     */
    std::uint64_t storeErrors() const;

    /** @return the sharded record path for @p key ("" without a disk
     *          store).  This is where new records are published. */
    std::string recordPath(std::uint64_t key) const;

    /** @return the pre-shard flat path for @p key (read fallback). */
    std::string legacyRecordPath(std::uint64_t key) const;

    /**
     * Janitor: remove `*.tmp.*` files in @p dir — and its 2-hex-named
     * shard subdirectories — left behind by crashed writers.  A temp
     * is stale when its embedded writer pid is no longer alive, or —
     * when the pid cannot be determined — when the file is older than
     * @p max_age.  Fresh temps of live writers are never touched.
     * Runs automatically on store open.
     *
     * @return the number of temps removed
     */
    static std::size_t gcStaleTemps(
        const std::string &dir,
        std::chrono::seconds max_age = std::chrono::minutes(15));

  private:
    struct Entry
    {
        bool ready = false;
        bool computing = false;
        RunRecord record;
    };

    bool loadFromDisk(std::uint64_t key, RunRecord &out) const;
    void storeToDisk(std::uint64_t key, const RunRecord &r) const;

    std::string dir_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::unordered_map<std::uint64_t, Entry> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t diskHits_ = 0;
    /** Atomic: bumped from storeToDisk() outside mutex_. */
    mutable std::atomic<std::uint64_t> storeErrors_{0};
};

/**
 * Supervision hooks for a cached run (the sweep daemon's robustness
 * layer).  Observe-only for runs that complete: neither field enters
 * the job digest and neither perturbs results — they only decide
 * whether a run is *allowed* to finish.
 */
struct RunSupervision
{
    /**
     * Cooperative cancel token, polled by the kernel (and the
     * Watchdog when one is configured); when set, the run throws
     * JobCancelled.  nullptr = unsupervised.
     */
    const CancelToken *cancel = nullptr;
    /**
     * Wall-clock budget armed on the Watchdog (DeadlineExceeded on
     * expiry).  Takes effect only when the job's own config enables
     * a watchdog (verify.watchdogCycles > 0): the deadline must not
     * alter the kernel counters of an unsupervised run, and
     * installing an auditor disables quiescence skipping.  Jobs
     * without a watchdog are bounded by the supervisor's deadline
     * monitor through @ref cancel instead.  0 = no deadline.
     */
    std::uint64_t deadlineMs = 0;
};

/**
 * Run @p job through @p cache (nullptr = always execute).
 *
 * On a miss, builds the workloads from their keys
 * (makeWorkloadFromSpec), constructs a CmpSystem and measures it; on a
 * hit, returns the memoized record without simulating.  Results are
 * bit-identical either way — the run-cache differential tests and the
 * bench_headline cache differential enforce it.
 *
 * With @p sup, executed runs are supervised: they can be cancelled or
 * deadline-bounded, in which case JobCancelled escapes here (the
 * in-flight dedup entry is released so a retry recomputes).
 */
RunResult runAndMeasureCached(const RunJob &job, RunCache *cache,
                              const RunSupervision *sup = nullptr);

} // namespace vpc

#endif // VPC_SYSTEM_RUN_CACHE_HH
