/**
 * @file
 * Per-layer measurement for the traced run.
 *
 * tracedRun() executes a job through the same public calls
 * runAndMeasureCached() makes — makeWorkloadFromSpec, the CmpSystem
 * constructor, run (warmup), snapshot, run (measure), snapshot, the
 * destructor — with
 * a span around each, the observe-only SystemConfig::profile accounts
 * switched on, and then reads the live system's counters through its
 * public accessors.  Nothing inside the program is instrumented.
 */

#ifndef VPCPERF_LAYERS_HH
#define VPCPERF_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "system/run_cache.hh"

namespace perfbench
{

/** Per-layer counters of one traced pass, summed over executed jobs. */
struct LayerTotals
{
    /** Traced passes summed here; counts are reported per pass. */
    std::uint64_t passes = 0;

    // sim: kernel work counters and host time inside CmpSystem::run
    std::uint64_t jobs = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t cyclesExecuted = 0;
    std::uint64_t cyclesSkipped = 0;
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t wheelCascades = 0;
    double runHostNs = 0.0;

    // core
    double ipcSum = 0.0; //!< sum over jobs of the summed thread IPCs
    std::uint64_t storeStallCycles = 0;
    std::uint64_t threadCycles = 0;

    // profile accounts (host ns)
    std::uint64_t profNs = 0;
    std::uint64_t cpuNs = 0, cpuTickNs = 0, cpuTicks = 0;
    std::uint64_t l2Ns = 0, l2TickNs = 0, l2Ticks = 0;
    std::uint64_t memNs = 0;

    // workload
    double buildNs = 0.0;
    std::uint64_t builds = 0;
    double genNs = 0.0;
    std::uint64_t genOps = 0;

    // cache
    std::uint64_t l1Hits = 0, l1Misses = 0, l1Blocked = 0;
    std::uint64_t l2Reads = 0, l2Writes = 0, l2Misses = 0;
    std::uint64_t sgbStores = 0, sgbGathered = 0;
    std::uint64_t rcqHighWater = 0;
    double overQuotaMax = 0.0;

    // arbiter: tag, data, bus
    double util[3] = {0.0, 0.0, 0.0};
    double qdelaySum[3] = {0.0, 0.0, 0.0};
    std::uint64_t qdelayCount[3] = {0, 0, 0};
    double qdelayMax = 0.0;
    std::uint64_t grants = 0;

    // mem
    std::uint64_t memReads = 0, memWrites = 0;
    double memLatSum = 0.0;
    std::uint64_t memLatCount = 0;

    // system
    std::vector<double> constructMs;
    std::vector<double> runMs;
    double queueWaitMaxMs = 0.0;
    double busyMs = 0.0;
    double passWallMs = 0.0;
    unsigned workers = 1;
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    std::vector<double> storeUs;
    std::vector<double> diskHitUs;

    // service
    std::vector<double> encodeUs;
    std::vector<double> decodeUs;

    /** One executed job's workload streams, replayed after the pass. */
    struct Replay
    {
        vpc::WorkloadKey key;
        std::uint64_t ops = 0;
    };
    std::vector<Replay> replays;

    /** Fold @p o (another job's or pass's totals) into this one. */
    void add(const LayerTotals &o);
};

/**
 * Execute @p job step by step with spans (see file comment) and add
 * its counters to @p out.  Model statistics are bit-identical to
 * runAndMeasureCached(): the profile flag is observe-only.
 *
 * @throws std::runtime_error when a workload spec is unknown
 */
vpc::RunRecord tracedRun(const vpc::RunJob &job, Tracer &tracer,
                         std::uint64_t parent, std::uint64_t job_id,
                         LayerTotals &out);

/**
 * Replay every stream tracedRun() recorded through
 * Workload::nextBlock, timed from outside the model.
 */
void replayWorkloads(LayerTotals &t);

/**
 * Time the job codec on @p jobs and the run cache's disk store and
 * disk-hit paths on @p records, using a fresh store under @p dir.
 * @return false (with @p err) when a round trip does not reproduce
 *         its input
 */
bool probeCodecAndStore(const std::vector<vpc::RunJob> &jobs,
                        const std::vector<vpc::RunRecord> &records,
                        const std::string &dir, Tracer &tracer,
                        LayerTotals &t, std::string &err);

/** @return the per-layer metrics every workload reports. */
std::vector<Metric> perLayerMetrics(const LayerTotals &t,
                                    double overhead_frac);

} // namespace perfbench

#endif // VPCPERF_LAYERS_HH
