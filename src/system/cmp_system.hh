/**
 * @file
 * Full-system assembly: cores + L1s + shared L2 + memory controller.
 *
 * Builds the Figure 1a machine from a SystemConfig and a workload per
 * processor, wires the miss/response paths, and provides snapshot-based
 * measurement (warm up, snapshot, run, diff) so benches report
 * steady-state numbers.
 */

#ifndef VPC_SYSTEM_CMP_SYSTEM_HH
#define VPC_SYSTEM_CMP_SYSTEM_HH

#include <chrono>
#include <memory>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/l2_cache.hh"
#include "core/cpu.hh"
#include "mem/memory_controller.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "verify/verifier.hh"
#include "workload/workload.hh"

namespace vpc
{

/** Raw counter values at one instant. */
struct SystemSnapshot
{
    Cycle cycle = 0;
    std::vector<std::uint64_t> instrs;
    std::vector<std::uint64_t> loads;
    std::vector<std::uint64_t> stores;
    std::vector<std::uint64_t> l2Reads;
    std::vector<std::uint64_t> l2Writes;
    std::vector<std::uint64_t> l2Misses;
    std::vector<std::uint64_t> sgbStores;
    std::vector<std::uint64_t> sgbGathered;
    double tagBusy = 0.0;  //!< mean busy cycles per bank
    double dataBusy = 0.0;
    double busBusy = 0.0;
};

/** Steady-state metrics over a measurement interval. */
struct IntervalStats
{
    Cycle cycles = 0;
    std::vector<double> ipc;
    std::vector<std::uint64_t> instrs;
    std::vector<std::uint64_t> l2Reads;
    std::vector<std::uint64_t> l2Writes;
    std::vector<std::uint64_t> l2Misses;
    double tagUtil = 0.0;
    double dataUtil = 0.0;
    double busUtil = 0.0;

    /** Fraction of thread @p t's L2 requests that are writes. */
    double
    writeFraction(ThreadId t) const
    {
        std::uint64_t total = l2Reads.at(t) + l2Writes.at(t);
        return total == 0 ? 0.0
            : static_cast<double>(l2Writes[t]) /
              static_cast<double>(total);
    }

    std::vector<std::uint64_t> sgbStores;
    std::vector<std::uint64_t> sgbGathered;

    /** Fraction of thread @p t's stores gathered in the SGB. */
    double
    gatherRate(ThreadId t) const
    {
        return sgbStores.at(t) == 0 ? 0.0
            : static_cast<double>(sgbGathered.at(t)) /
              static_cast<double>(sgbStores.at(t));
    }
};

/** The simulated CMP (Figure 1a). */
class CmpSystem
{
  public:
    /**
     * @param cfg validated system configuration (validate() is called)
     * @param workloads one instruction stream per processor; takes
     *        ownership
     */
    CmpSystem(SystemConfig cfg,
              std::vector<std::unique_ptr<Workload>> workloads);

    /** Advance the simulation by @p cycles. */
    void run(Cycle cycles);

    /** @return the current cycle. */
    Cycle now() const { return sim.now(); }

    /** @return kernel work/skip counters (see KernelStats). */
    const KernelStats &kernelStats() const { return sim.kernelStats(); }

    /** Capture all measurement counters. */
    SystemSnapshot snapshot() const;

    /** Metrics between two snapshots (@p a taken before @p b). */
    static IntervalStats interval(const SystemSnapshot &a,
                                  const SystemSnapshot &b);

    /** Convenience: run @p warmup, then measure over @p measure. */
    IntervalStats runAndMeasure(Cycle warmup, Cycle measure);

    /** @name Component access (tests and detailed stats) */
    /// @{
    Cpu &cpu(ThreadId t) { return *cpus.at(t); }
    L1DCache &l1(ThreadId t) { return *l1s.at(t); }
    L2Cache &l2() { return *l2_; }
    const L2Cache &l2() const { return *l2_; }
    MemoryController &mem() { return *mem_; }
    const SystemConfig &config() const { return cfg; }
    /// @}

    /**
     * @return the verify layer, or nullptr when cfg.verify is fully
     *         disabled (no audit hook installed, zero per-cycle cost
     *         beyond the simulator's null-auditor branch).
     */
    Verifier *verifier() { return verifier_.get(); }

    /**
     * @name Supervision (the sweep daemon's per-job robustness hooks)
     *
     * setCancelToken() installs a cooperative cancel flag on the
     * kernel (and the Watchdog when one is configured): when
     * the owner sets it, run() unwinds with JobCancelled and the
     * system must be discarded.  armWallDeadline() bounds the run's
     * host time through the Watchdog; it requires
     * cfg.verify.watchdogCycles > 0 and is a silent no-op otherwise
     * (deadlines for watchdog-less jobs come from the supervisor's
     * own monitor via the cancel token).  Both are observe-only for
     * runs that complete — results and kernel counters are unchanged.
     */
    /// @{
    void setCancelToken(const CancelToken *token);
    void armWallDeadline(std::chrono::milliseconds budget);
    /// @}

    /** Render the machine state for the panic dump (also tests). */
    std::string dumpState() const;

    /** @return true when the cycle-attribution profiler is attached. */
    bool profiling() const { return profiler_ != nullptr; }

    /**
     * @return a copy of the profiler's per-component accounts (only
     *         the unattributed account when not profiling()).
     */
    Profiler mergedProfile() const;

  private:
    /** Build the verify layer from cfg.verify and install it. */
    void buildVerifier();

    SystemConfig cfg;
    Simulator sim;
    std::vector<std::unique_ptr<Workload>> workloads;
    std::unique_ptr<MemoryController> mem_;
    std::unique_ptr<L2Cache> l2_;
    std::vector<std::unique_ptr<L1DCache>> l1s;
    std::vector<std::unique_ptr<Cpu>> cpus;
    /** Cycle-attribution profiler; non-null iff cfg.profile. */
    std::unique_ptr<Profiler> profiler_;

    // Declared after the components so they are destroyed first:
    // the checkers and the dump callback hold references into them.
    std::unique_ptr<Verifier> verifier_;
    std::unique_ptr<ScopedPanicDump> panicDump_;
};

} // namespace vpc

#endif // VPC_SYSTEM_CMP_SYSTEM_HH
