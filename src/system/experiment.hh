/**
 * @file
 * Experiment harness shared by the benches and examples.
 *
 * Provides the paper's methodology as reusable pieces:
 *
 *  - target IPC: a thread's performance on a standalone private machine
 *    provisioned exactly like its VPC (same sets, beta_i of the ways,
 *    resource latencies scaled by 1/phi_i) -- Section 5.3;
 *  - normalized IPC and the aggregate metrics the paper reports
 *    (harmonic mean of normalized IPCs, minimum normalized IPC);
 *  - convenience constructors for the Table 1 baseline configuration.
 */

#ifndef VPC_SYSTEM_EXPERIMENT_HH
#define VPC_SYSTEM_EXPERIMENT_HH

#include <vector>

#include "system/cmp_system.hh"
#include "system/run_cache.hh"
#include "workload/workload.hh"

namespace vpc
{

/** Default measurement interval lengths (core cycles). */
struct RunLengths
{
    Cycle warmup = 100'000;
    Cycle measure = 400'000;
};

/**
 * @return the Table 1 baseline configuration for @p num_processors
 *         processors with @p policy arbiters and equal QoS shares
 */
SystemConfig makeBaselineConfig(unsigned num_processors,
                                ArbiterPolicy policy);

/**
 * @return a big-CMP scale-up of the Table 1 machine: @p num_processors
 *         processors (8, 16 or 32), one L2 bank per two processors
 *         (8 MB per bank, so per-bank capacity and set count match the
 *         baseline), equal QoS shares, and an interconnect deepened
 *         with machine size (3/4/5 cycles at 8/16/32 processors — a
 *         crossbar serving more agents takes longer per hop).
 *
 * @pre num_processors is a power of 2 in [2, 32] (banks must be a
 *      power of 2, and beta * ways must stay >= 1 way per thread
 *      under equal shares)
 */
SystemConfig makeScaledCmpConfig(unsigned num_processors,
                                 ArbiterPolicy policy);

/**
 * Round @p cycles up to an even number of core cycles (the L2 runs at
 * half the core frequency, so occupancies are even).
 */
Cycle ceilEven(double cycles);

/**
 * Build the private-machine configuration equivalent to a VPC with
 * bandwidth share @p phi and capacity share @p beta: a uniprocessor
 * whose L2 keeps the shared cache's sets but has beta * ways ways, and
 * whose tag/data/bus latencies are scaled by 1/phi (Section 5.3).
 *
 * @pre phi > 0
 */
SystemConfig makePrivateConfig(const SystemConfig &base, double phi,
                               double beta);

/**
 * Measure a workload's target IPC: its IPC on the equivalent private
 * machine.  Returns 0 for phi == 0 by definition.
 *
 * @param base the shared-machine configuration being studied
 * @param workload the benchmark (cloned; the original is untouched)
 * @param phi bandwidth share of the VPC
 * @param beta capacity share of the VPC
 * @param lens run lengths
 * @param kernel_out if non-null, receives the private run's kernel
 *        work/skip counters (for bench reporting)
 */
double targetIpc(const SystemConfig &base, const Workload &workload,
                 double phi, double beta, const RunLengths &lens = {},
                 KernelStats *kernel_out = nullptr,
                 Profiler *profile_out = nullptr);

/**
 * The private-machine run that defines a thread's target IPC, as a
 * cacheable job: the same configuration targetIpc() builds, with the
 * workload identified by content key instead of a live object.  For
 * equivalence with targetIpc() the key's seed must be the clone seed
 * it uses (1); workload_block_test asserts that rebuilding from spec
 * replays the cloned stream bit-identically.
 *
 * @pre phi > 0
 */
RunJob makeTargetJob(const SystemConfig &base,
                     const WorkloadKey &workload, double phi,
                     double beta, const RunLengths &lens = {});

/**
 * Keyed, memoizable variant of targetIpc(): runs makeTargetJob()
 * through @p cache (nullptr = always execute).  The target IPC is
 * result.record.stats.ipc.at(0); kernel counters and (for executed
 * runs) the merged profile ride along in the RunResult.
 */
RunResult runTargetIpc(const SystemConfig &base,
                       const WorkloadKey &workload, double phi,
                       double beta, RunCache *cache,
                       const RunLengths &lens = {});

/** @return the harmonic mean of @p values (0 if any value is 0). */
double harmonicMean(const std::vector<double> &values);

/** @return the smallest element of @p values. */
double minimum(const std::vector<double> &values);

} // namespace vpc

#endif // VPC_SYSTEM_EXPERIMENT_HH
