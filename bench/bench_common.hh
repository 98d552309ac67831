/**
 * @file
 * Shared bench instrumentation: wall-clock timing, kernel-counter
 * aggregation and a machine-readable JSON report.
 *
 * Every bench binary prints a human-readable table; BenchReporter adds
 * the numbers a perf regression harness needs -- wall time, simulated
 * cycles, simulation rate (Mcycles/s) and event density (events per
 * executed cycle) -- and can write them as BENCH_<name>.json so
 * before/after comparisons are a diff, not a copy-paste exercise.
 *
 * Usage:
 *
 *   BenchReporter rep("headline");       // clock starts here
 *   ... run simulations, after each one:
 *   rep.addRun(sys.now(), sys.kernelStats());
 *   rep.finish();                        // clock stops here
 *   rep.printSummary();
 *   rep.writeJson();                     // BENCH_headline.json
 *
 * addRun() is thread-safe so sweep-driven benches can report from
 * parallelFor jobs.
 */

#ifndef VPC_BENCH_BENCH_COMMON_HH
#define VPC_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "system/options.hh"
#include "system/run_cache.hh"

namespace vpc
{

/**
 * @name Canonical bench workload identity
 *
 * Every bench places thread t's workload at threadBaseAddr(t) with
 * seed t + 1.  Deriving bases and seeds from these helpers (instead
 * of re-spelling the magic constants per bench) keeps run-cache keys
 * in agreement across benches, examples and the vpcsim driver.
 */
/// @{

/** @return thread @p t's address-space base (t << 40). */
constexpr Addr benchThreadBase(unsigned t) { return threadBaseAddr(t); }

/** @return thread @p t's canonical workload seed (t + 1). */
constexpr std::uint64_t benchThreadSeed(unsigned t) { return t + 1; }

/** @return the run-cache key for @p spec running on thread @p t. */
inline WorkloadKey
benchWorkloadKey(const std::string &spec, unsigned t)
{
    return WorkloadKey{spec, benchThreadBase(t), benchThreadSeed(t)};
}

/// @}

/** Wall-time + kernel-counter reporter for bench binaries. */
class BenchReporter
{
  public:
    /** Start the wall clock; @p name keys the default JSON filename. */
    explicit BenchReporter(std::string name);

    /**
     * Record one finished simulation.  Thread-safe.
     *
     * @param sim_cycles the simulation's final cycle count
     * @param k its kernel counters
     */
    void addRun(std::uint64_t sim_cycles, const KernelStats &k);

    /**
     * Fold one simulation's cycle-attribution profile (--profile)
     * into the report.  Thread-safe; accounts merge by component
     * name across runs.  The JSON gains a "profile" section and
     * printSummary() appends the merged per-component table.
     */
    void addProfile(const Profiler &p);

    /**
     * Record the bench's run-cache totals (typically once, just
     * before finish()).  They appear in the stderr summary and as
     * the JSON's "run_cache" section; benches that never consult a
     * cache report zeros.  A non-zero @p store_errors means the disk
     * store silently degraded (full disk, bad permissions) — CI can
     * alert on the JSON field instead of scraping warn lines.
     */
    void setRunCacheStats(std::uint64_t hits, std::uint64_t misses,
                          std::uint64_t disk_hits = 0,
                          std::uint64_t store_errors = 0);

    /** Convenience: record all four counters from @p cache. */
    void setRunCacheStats(const RunCache &cache);

    /**
     * Attach a bench-specific JSON section.  @p raw_json must be a
     * complete JSON value (object or array); it is emitted verbatim
     * under @p key at the top level of the report.  bench_scaleup
     * uses this for its per-size wall times.
     */
    void setExtraSection(std::string key, std::string raw_json);

    /** Stop the wall clock (idempotent; addRun() after is an error). */
    void finish();

    /** @return wall time from construction to finish(), milliseconds. */
    double wallMs() const;

    /** @return total simulated cycles across all runs. */
    std::uint64_t simCycles() const { return simCycles_; }

    /** @return simulation rate in Mcycles per wall-clock second. */
    double mcyclesPerSec() const;

    /** @return events fired per *executed* cycle (event density). */
    double eventsPerCycle() const;

    /**
     * Print the one-line kernel performance summary to stderr (stderr
     * so redirected stdout stays identical between skip / --no-skip).
     */
    void printSummary() const;

    /**
     * Write the JSON report.
     *
     * @param path output file; empty = "BENCH_<name>.json" in the
     *             current directory
     */
    void writeJson(const std::string &path = "") const;

    /**
     * Mark this report as a reduced-scale run (--quick).  Written as
     * the JSON's "quick" field; tools/bench_diff refuses to gate a
     * quick row against a full one (or vice versa) — their wall
     * times are not comparable by construction.
     */
    void setQuick(bool quick);

    /**
     * Host machine and toolchain description, captured once per
     * process: processor count, CPU model string (from /proc/cpuinfo
     * when available), the 1-minute load average, the compiler
     * id/version this binary was built with and the SoA-scan
     * instruction set compiled in (src/sim/vec.hh).  Written into
     * every bench JSON so cross-machine *and* cross-toolchain/flag
     * comparisons are detectable (see tools/bench_diff).
     */
    struct MachineInfo
    {
        unsigned nproc = 0;
        std::string cpuModel; //!< empty when undeterminable
        double loadavg1m = -1.0; //!< negative when undeterminable
        std::string compiler; //!< e.g. "gcc 12.2.0"
        std::string simd;     //!< vec::kIsaName ("avx2", "scalar", ...)
    };

    /** @return the host description (probed on first call). */
    static const MachineInfo &machineInfo();

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point end_;
    bool finished_ = false;
    mutable std::mutex mutex_;
    std::uint64_t runs_ = 0;
    std::uint64_t simCycles_ = 0;
    std::uint64_t cyclesExecuted_ = 0;
    std::uint64_t cyclesSkipped_ = 0;
    std::uint64_t ticksExecuted_ = 0;
    std::uint64_t eventsFired_ = 0;
    Profiler profile_;       //!< merged across addProfile() calls
    bool haveProfile_ = false;
    bool quick_ = false;
    std::string extraKey_;   //!< see setExtraSection()
    std::string extraJson_;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t cacheMisses_ = 0;
    std::uint64_t cacheDiskHits_ = 0;
    std::uint64_t cacheStoreErrors_ = 0;
};

} // namespace vpc

#endif // VPC_BENCH_BENCH_COMMON_HH
