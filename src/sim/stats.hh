/**
 * @file
 * Lightweight statistics primitives.
 *
 * Every hardware model owns its statistics as plain members of these
 * types.
 */

#ifndef VPC_SIM_STATS_HH
#define VPC_SIM_STATS_HH

#include <cstdint>

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

} // namespace vpc

#endif // VPC_SIM_STATS_HH
