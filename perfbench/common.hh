/**
 * @file
 * Shared pieces of the benchmark program: options, the metric list a
 * workload returns, the span recorder of the traced run, and small
 * statistics helpers.
 */

#ifndef VPCPERF_COMMON_HH
#define VPCPERF_COMMON_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "system/record_io.hh"
#include "system/run_cache.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir; //!< scratch space inside the checkout
};

/** One named, unit-carrying number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Outcome
{
    /** The gated end-to-end metrics (untraced passes only). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics every workload reports (traced run only). */
    std::vector<Metric> perLayer;
    /** Workload-specific figures, printed but not gated. */
    std::vector<Metric> report;
    /** Digest of every model statistic the workload produced. */
    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check mismatches; any entry fails the run. */
    std::vector<std::string> problems;
};

/** @return seconds between two instants. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** @return milliseconds between two instants. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** @return CPU seconds (user + system) used by this process so far. */
double processCpuSeconds();

/** @return this process's peak resident set size in MiB. */
double peakRssMb();

/**
 * @return the @p q quantile (0..1) of @p v by linear interpolation
 *         between closest ranks; 0 for an empty vector
 */
double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/** @return a well-mixed 64-bit value derived from @p x (splitmix64). */
std::uint64_t mix64(std::uint64_t x);

/**
 * Fold every model statistic of @p r into @p h: the end cycle and
 * every IntervalStats field.  Kernel work counters are left out: a
 * kernel optimization may change them without changing the model.
 */
void digestRecord(vpc::Fnv1a &h, const vpc::RunRecord &r);

/** @return whether two records carry identical model statistics. */
bool sameModelStats(const vpc::RunRecord &a, const vpc::RunRecord &b);

/**
 * In-memory span recorder for the traced run.  A span has a name,
 * start, end, parent span and job id; spans are kept in memory and
 * written out once, when the run ends.  Thread-safe.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; //!< 0 = root
        std::uint64_t job = 0;
        Clock::time_point start;
        Clock::time_point end;
    };

    /** Records one span from construction to destruction. */
    class Scope
    {
      public:
        /** @p tracer may be null: the scope then records nothing. */
        Scope(Tracer *tracer, const char *name, std::uint64_t parent,
              std::uint64_t job);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return span_.id; }
        /** @return milliseconds since the scope opened. */
        double elapsedMs() const;

      private:
        Tracer *tracer_;
        Span span_;
    };

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

    /** Time spent in the spans of one name. */
    struct NameTotal
    {
        std::string name;
        std::uint64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /**
     * Per span name: count, total and self time.  Self time is a
     * span's duration minus the union of its children's intervals.
     */
    std::vector<NameTotal> selfTimes() const;

    std::size_t size() const;

  private:
    void add(Span s);

    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> nextId_{1};
    Clock::time_point origin_ = Clock::now();
};

} // namespace perfbench

#endif // VPCPERF_COMMON_HH
