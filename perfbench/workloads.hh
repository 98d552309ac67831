/**
 * @file
 * The benchmark's workloads.  Each builds its jobs from the seed,
 * measures untraced passes for the requested time, and with tracing on
 * adds a traced pass that yields the per-layer metrics.
 */

#ifndef VPCPERF_WORKLOADS_HH
#define VPCPERF_WORKLOADS_HH

#include "common.hh"

namespace perfbench
{

/** headline_sweep and bank_contention: sweeps through parallelFor. */
Outcome runSweep(const Options &opt, Tracer &tracer);

/** service_flood: an in-process daemon driven over its socket. */
Outcome runFlood(const Options &opt, Tracer &tracer);

} // namespace perfbench

#endif // VPCPERF_WORKLOADS_HH
