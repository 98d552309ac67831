/**
 * @file
 * Lightweight statistics primitives.
 *
 * Every hardware model owns its statistics as plain members of these
 * types; a StatGroup provides named registration so benches and tests
 * can enumerate and print them uniformly.
 */

#ifndef VPC_SIM_STATS_HH
#define VPC_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace vpc
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { count_ += n; }

    /** @return the accumulated count. */
    std::uint64_t value() const { return count_; }

    /** Reset to zero. */
    void reset() { count_ = 0; }

  private:
    std::uint64_t count_ = 0;
};

/**
 * Tracks the busy fraction of a timed resource.
 *
 * A resource reports each service interval with addBusy(); utilization
 * over a measurement window is busy-cycles / window-cycles.
 */
class UtilizationStat
{
  public:
    /** Account @p cycles of busy time. */
    void addBusy(Cycle cycles) { busyCycles_ += cycles; }

    /** @return accumulated busy cycles. */
    Cycle busyCycles() const { return busyCycles_; }

    /**
     * @param window total elapsed cycles of the measurement interval
     * @return utilization in [0, 1] (clamped)
     */
    double
    utilization(Cycle window) const
    {
        if (window == 0)
            return 0.0;
        double u = static_cast<double>(busyCycles_) /
                   static_cast<double>(window);
        return u > 1.0 ? 1.0 : u;
    }

    /** Reset accumulated busy time. */
    void reset() { busyCycles_ = 0; }

  private:
    Cycle busyCycles_ = 0;
};

/** Running mean/min/max of a sampled scalar (e.g. queue latency). */
class SampleStat
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++n_;
        if (v < min_ || n_ == 1)
            min_ = v;
        if (v > max_ || n_ == 1)
            max_ = v;
    }

    /** @return number of samples recorded. */
    std::uint64_t count() const { return n_; }

    /** @return arithmetic mean (0 if no samples). */
    double mean() const { return n_ ? sum_ / n_ : 0.0; }

    /** @return smallest sample (0 if none). */
    double min() const { return n_ ? min_ : 0.0; }

    /** @return largest sample (0 if none). */
    double max() const { return n_ ? max_ : 0.0; }

    /** Discard all samples. */
    void
    reset()
    {
        sum_ = 0.0;
        n_ = 0;
        min_ = 0.0;
        max_ = 0.0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t n_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bucket histogram for latency distributions.
 *
 * Buckets are [0,w), [w,2w), ... plus an overflow bucket.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each bucket
     * @param num_buckets number of regular buckets (an overflow bucket
     *        is appended automatically)
     */
    explicit Histogram(std::uint64_t bucket_width = 8,
                       std::size_t num_buckets = 32)
        : width(bucket_width ? bucket_width : 1),
          buckets(num_buckets + 1, 0)
    {}

    /** Record one value. */
    void
    sample(std::uint64_t v)
    {
        std::size_t idx = static_cast<std::size_t>(v / width);
        if (idx >= buckets.size() - 1)
            idx = buckets.size() - 1;
        ++buckets[idx];
        ++total_;
    }

    /** @return count in bucket @p i (last bucket = overflow). */
    std::uint64_t bucketCount(std::size_t i) const { return buckets.at(i); }

    /** @return number of buckets including overflow. */
    std::size_t numBuckets() const { return buckets.size(); }

    /** @return total samples. */
    std::uint64_t total() const { return total_; }

    /** @return bucket width. */
    std::uint64_t bucketWidth() const { return width; }

  private:
    std::uint64_t width;
    std::vector<std::uint64_t> buckets;
    std::uint64_t total_ = 0;
};

/**
 * Per-run counters maintained by the simulation kernel itself (see
 * Simulator): how many cycles actually executed, how many were
 * fast-forwarded by the quiescence optimization, and how much component
 * and event work ran.  These make kernel speedups observable — a bench
 * can report events/cycle and skip ratios instead of anecdotes.
 *
 * Kernel counters are deliberately *not* part of the model statistics
 * block (stats_report.cc): ticksExecuted and cyclesSkipped legitimately
 * differ between a skipping and a --no-skip run of the same config,
 * while the model stats must stay bit-identical.
 */
struct KernelStats
{
    /** Cycles stepped one-by-one (events + due ticks executed). */
    Counter cyclesExecuted;
    /** Cycles fast-forwarded because the whole machine was quiescent. */
    Counter cyclesSkipped;
    /** Total Ticking::tick() invocations. */
    Counter ticksExecuted;
    /** Total events fired from the EventQueue. */
    Counter eventsFired;
    /** Timing-wheel overflow/L1 cascade operations. */
    Counter wheelCascades;

    void
    reset()
    {
        cyclesExecuted.reset();
        cyclesSkipped.reset();
        ticksExecuted.reset();
        eventsFired.reset();
        wheelCascades.reset();
    }
};

/**
 * A named collection of statistic references for uniform reporting.
 *
 * Models register their stats with addCounter()/addUtilization(); the
 * group does not own the stats, it only references them, so it must not
 * outlive the registering model.
 */
class StatGroup
{
  public:
    /** Register a named counter. */
    void
    addCounter(std::string name, const Counter &c)
    {
        counters_.emplace_back(std::move(name), &c);
    }

    /** Register a named utilization stat. */
    void
    addUtilization(std::string name, const UtilizationStat &u)
    {
        utils_.emplace_back(std::move(name), &u);
    }

    /** @return all registered counters as (name, value) pairs. */
    std::vector<std::pair<std::string, std::uint64_t>>
    counterValues() const
    {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        out.reserve(counters_.size());
        for (const auto &[name, c] : counters_)
            out.emplace_back(name, c->value());
        return out;
    }

    /**
     * @param window elapsed cycles
     * @return all registered utilizations as (name, fraction) pairs
     */
    std::vector<std::pair<std::string, double>>
    utilizationValues(Cycle window) const
    {
        std::vector<std::pair<std::string, double>> out;
        out.reserve(utils_.size());
        for (const auto &[name, u] : utils_)
            out.emplace_back(name, u->utilization(window));
        return out;
    }

  private:
    std::vector<std::pair<std::string, const Counter *>> counters_;
    std::vector<std::pair<std::string, const UtilizationStat *>> utils_;
};

} // namespace vpc

#endif // VPC_SIM_STATS_HH
