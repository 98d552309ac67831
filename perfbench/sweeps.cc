/**
 * @file
 * headline_sweep and bank_contention.
 *
 * headline_sweep is the paper's headline experiment as users run it:
 * ten heterogeneous SPEC mixes, each simulated on the four private
 * target machines plus the shared FCFS and VPC machines (60 jobs), all
 * through one in-process RunCache (private targets repeat across mixes
 * and are deduplicated) by parallelFor.  Host
 * time splits between the cores and the L2, and many cycles are
 * skipped, so it is where the core, workload, kernel-skipping and
 * sweep-tail layers matter.
 *
 * bank_contention is the 16-processor scaled machine with threads
 * alternating the loads and stores microbenchmarks (Table 2), once
 * per arbiter policy.  The L2 banks and arbiters do most of the host
 * work, no cycle is skipped, and stores run beside loads, so the
 * store-gather buffer, ECC writes and RoW-FCFS store starvation
 * (Figure 8) are exercised.
 *
 * The seed picks the workload generators' seeds; the mixes, machines
 * and run lengths are fixed, so every seed does the same kind and
 * amount of work.
 */

#include <algorithm>
#include <array>
#include <mutex>
#include <string>

#include "layers.hh"
#include "system/experiment.hh"
#include "system/options.hh"
#include "system/record_io.hh"
#include "system/sweep.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace vpc;

namespace
{

using Mix = std::array<std::string, 4>;

/** The headline bench's mixes, weighted toward the contended regime. */
const std::vector<Mix> kMixes = {
    {"art", "vpr", "mesa", "crafty"},
    {"art", "mesa", "gap", "gcc"},
    {"vpr", "crafty", "gzip", "twolf"},
    {"art", "vpr", "gap", "apsi"},
    {"mesa", "crafty", "gcc", "gzip"},
    {"art", "crafty", "twolf", "bzip2"},
    {"vpr", "mesa", "apsi", "wupwise"},
    {"art", "gap", "gcc", "mgrid"},
    {"art", "mcf", "equake", "swim"},
    {"crafty", "gzip", "ammp", "sixtrack"},
};

constexpr ArbiterPolicy kBankPolicies[] = {
    ArbiterPolicy::Fcfs, ArbiterPolicy::RowFcfs, ArbiterPolicy::Vpc};
const char *const kBankPolicyNames[] = {"fcfs", "row", "vpc"};

/**
 * parallelFor workers of a sweep.  One: with four workers on a 4-vCPU
 * host the sweep's wall time (set by the slowest worker) spread 21%
 * between runs of the same code, one worker 4%, and a benchmark that
 * gates at most a 25% regression needs the steadier figure.
 */
constexpr unsigned kSweepWorkers = 1;

/** A workload's job list. */
struct Sweep
{
    bool headline = false;
    std::vector<RunJob> jobs;
};

/** Generator seed of thread @p t under benchmark seed @p seed. */
std::uint64_t
threadSeed(std::uint64_t seed, unsigned t)
{
    return mix64(seed) + t;
}

Sweep
buildSweep(bool headline, std::uint64_t seed)
{
    Sweep sw;
    sw.headline = headline;
    if (headline) {
        const RunLengths lens{80'000, 200'000};
        const SystemConfig priv_base =
            makeBaselineConfig(4, ArbiterPolicy::Vpc);
        // Per mix: four private targets (phi = beta = 0.25), then the
        // shared FCFS and VPC machines.  A target's key depends only
        // on (benchmark, thread slot, seed), so targets repeat across
        // mixes and the run cache serves the repeats.
        for (const Mix &mix : kMixes) {
            std::vector<WorkloadKey> keys;
            for (unsigned t = 0; t < 4; ++t)
                keys.push_back({mix[t], threadBaseAddr(t),
                                threadSeed(seed, t)});
            for (unsigned t = 0; t < 4; ++t)
                sw.jobs.push_back(
                    makeTargetJob(priv_base, keys[t], 0.25, 0.25, lens));
            for (ArbiterPolicy p : {ArbiterPolicy::Fcfs, ArbiterPolicy::Vpc}) {
                RunJob job;
                job.config = makeBaselineConfig(4, p);
                job.workloads = keys;
                job.warmup = lens.warmup;
                job.measure = lens.measure;
                sw.jobs.push_back(std::move(job));
            }
        }
    } else {
        constexpr unsigned kProcs = 16;
        for (ArbiterPolicy p : kBankPolicies) {
            RunJob job;
            job.config = makeScaledCmpConfig(kProcs, p);
            for (unsigned t = 0; t < kProcs; ++t)
                job.workloads.push_back({t % 2 == 0 ? "loads" : "stores",
                                         threadBaseAddr(t),
                                         threadSeed(seed, t)});
            job.warmup = 20'000;
            job.measure = 200'000;
            sw.jobs.push_back(std::move(job));
        }
    }
    return sw;
}

/** One execution of a sweep's whole job list. */
struct Batch
{
    double wallS = 0.0;
    std::vector<RunRecord> records;
    std::vector<char> executed; //!< per job: simulated, not a cache hit
    std::vector<double> jobWallS; //!< per job: wall time of its body
    std::vector<double> jobCpuS;  //!< per job: process CPU time
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    bool threw = false;
    std::string error;

    /** @return measured-interval instructions of executed jobs, M. */
    double
    minstr() const
    {
        double n = 0.0;
        for (std::size_t j = 0; j < records.size(); ++j) {
            if (!executed[j])
                continue;
            for (std::uint64_t i : records[j].stats.instrs)
                n += static_cast<double>(i);
        }
        return n / 1e6;
    }
};

/** The program's own path: runAndMeasureCached through one RunCache. */
Batch
runUntraced(const Sweep &sw)
{
    Batch b;
    const std::size_t n = sw.jobs.size();
    b.records.assign(n, RunRecord{});
    b.executed.assign(n, 0);
    b.jobWallS.assign(n, 0.0);
    b.jobCpuS.assign(n, 0.0);
    const Clock::time_point t0 = Clock::now();
    RunCache cache;
    try {
        parallelFor(n, [&](std::size_t j) {
            // Process CPU time is the job's own: one worker runs at a
            // time (kSweepWorkers) and the serial kernel adds no thread.
            const double c0 = processCpuSeconds();
            const Clock::time_point s0 = Clock::now();
            RunResult r = runAndMeasureCached(sw.jobs[j], &cache);
            b.jobWallS[j] = secondsBetween(s0, Clock::now());
            b.jobCpuS[j] = processCpuSeconds() - c0;
            b.records[j] = std::move(r.record);
            b.executed[j] = !r.cacheHit;
        }, kSweepWorkers);
    } catch (const std::exception &e) {
        b.threw = true;
        b.error = e.what();
    }
    b.wallS = secondsBetween(t0, Clock::now());
    b.cacheHits = cache.hits();
    b.cacheMisses = cache.misses();
    return b;
}

/** The same sweep with spans around every call and live counters. */
Batch
runTraced(const Sweep &sw, Tracer &tracer, LayerTotals &totals)
{
    Batch b;
    const std::size_t n = sw.jobs.size();
    b.records.assign(n, RunRecord{});
    b.executed.assign(n, 0);
    std::mutex mu;
    LayerTotals pass;
    pass.workers = kSweepWorkers;
    const Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope sweep(&tracer, "sweep", 0, 0);
        RunCache cache;
        try {
            parallelFor(n, [&](std::size_t j) {
                Tracer::Scope body(&tracer, "parallelFor.job", sweep.id(),
                                   j);
                const double wait = msBetween(t0, Clock::now());
                LayerTotals local;
                bool hit = false;
                RunRecord rec;
                {
                    Tracer::Scope look(&tracer,
                                       "RunCache::lookupOrCompute",
                                       body.id(), j);
                    rec = cache.lookupOrCompute(
                        runDigest(sw.jobs[j]),
                        [&] {
                            return tracedRun(sw.jobs[j], tracer,
                                             look.id(), j, local);
                        },
                        &hit);
                }
                b.records[j] = std::move(rec);
                b.executed[j] = !hit;
                std::lock_guard<std::mutex> lock(mu);
                local.queueWaitMaxMs = wait;
                local.busyMs = body.elapsedMs();
                pass.add(local);
            }, kSweepWorkers);
        } catch (const std::exception &e) {
            b.threw = true;
            b.error = e.what();
        }
        b.cacheHits = cache.hits();
        b.cacheMisses = cache.misses();
    }
    b.wallS = secondsBetween(t0, Clock::now());
    pass.passWallMs = b.wallS * 1e3;
    pass.cacheHits = b.cacheHits;
    pass.cacheMisses = b.cacheMisses;
    pass.passes = 1;
    totals.add(pass);
    return b;
}

/**
 * Digest of every model statistic of @p b; for the headline sweep
 * also the harmonic-mean and minimum normalized-IPC gains of VPC over
 * FCFS, which are added to @p report.
 */
std::uint64_t
sweepDigest(const Sweep &sw, const Batch &b, std::vector<Metric> *report)
{
    Fnv1a h;
    for (const RunRecord &r : b.records)
        digestRecord(h, r);
    if (sw.headline) {
        double hm_f = 0.0, hm_v = 0.0, mn_f = 0.0, mn_v = 0.0;
        for (std::size_t m = 0; m < kMixes.size(); ++m) {
            std::vector<double> nf, nv;
            for (unsigned t = 0; t < 4; ++t) {
                double tgt = b.records[m * 6 + t].stats.ipc.at(0);
                tgt = tgt > 0 ? tgt : 1e-9;
                nf.push_back(b.records[m * 6 + 4].stats.ipc.at(t) / tgt);
                nv.push_back(b.records[m * 6 + 5].stats.ipc.at(t) / tgt);
            }
            hm_f += harmonicMean(nf);
            hm_v += harmonicMean(nv);
            mn_f += minimum(nf);
            mn_v += minimum(nv);
        }
        double hm_gain = (hm_v - hm_f) / hm_f * 100.0;
        double min_gain = (mn_v - mn_f) / mn_f * 100.0;
        h.dbl(hm_gain);
        h.dbl(min_gain);
        if (report) {
            report->push_back({"system.hm_gain_pct", hm_gain, "%"});
            report->push_back({"system.hm_gain_pct_paper", 14.0, "%"});
            report->push_back({"system.min_gain_pct", min_gain, "%"});
            report->push_back({"system.min_gain_pct_paper", 25.0, "%"});
        }
    } else if (report) {
        // Summed IPC of the loads and of the stores threads per policy:
        // RoW-FCFS starves the stores threads (Figure 8).
        for (std::size_t p = 0; p < b.records.size(); ++p) {
            double loads = 0.0, stores = 0.0;
            const std::vector<double> &ipc = b.records[p].stats.ipc;
            for (std::size_t t = 0; t < ipc.size(); ++t)
                (t % 2 == 0 ? loads : stores) += ipc[t];
            std::string pol = kBankPolicyNames[p];
            report->push_back({"bank." + pol + "_loads_ipc", loads,
                               "instr/cycle"});
            report->push_back({"bank." + pol + "_stores_ipc", stores,
                               "instr/cycle"});
        }
    }
    return h.value();
}

/** What the untraced passes produced. */
struct Passes
{
    std::vector<Batch> batches;
    std::vector<std::uint64_t> digests;
};

/**
 * Time kSetupBurst set-ups (job list and run cache), appending their
 * times to @p setup.  @return the job list.
 */
Sweep
setupBurst(bool headline, std::uint64_t seed, std::vector<double> &setup)
{
    constexpr int kSetupBurst = 128;
    Sweep sw;
    for (int i = 0; i < kSetupBurst; ++i) {
        const Clock::time_point t0 = Clock::now();
        sw = buildSweep(headline, seed);
        RunCache cache;
        setup.push_back(secondsBetween(t0, Clock::now()));
    }
    return sw;
}

/**
 * Untraced passes for @p seconds (at least two), each after a burst of
 * set-ups timed into @p setup.
 */
Passes
measure(const Sweep &sw, std::uint64_t seed, double seconds,
        std::vector<double> &setup)
{
    Passes p;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
        setupBurst(sw.headline, seed, setup);
        p.batches.push_back(runUntraced(sw));
        const Batch &b = p.batches.back();
        p.digests.push_back(b.threw ? 0 : sweepDigest(sw, b, nullptr));
    } while (Clock::now() < deadline || p.batches.size() < 2);
    return p;
}

} // namespace

Outcome
runSweep(const Options &opt, Tracer &tracer)
{
    const bool headline = opt.workload == "headline_sweep";
    Outcome out;

    // Set-up: building the job list and the run cache.  One set-up
    // takes microseconds, and a shared host runs a few milliseconds
    // quiet or contended (set-ups timed back to back at the start of a
    // run differed by up to 1.8x from run to run).  So a burst of
    // set-ups runs before every pass, spreading them over the run, and
    // the figure is their lower decile: the quiet time, as long as a
    // tenth of them ran quiet.
    std::vector<double> setup;
    const Sweep sw = setupBurst(headline, opt.seed, setup);

    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    Passes p = measure(sw, opt.seed, untraced_s, setup);

    const Batch &first = p.batches.front();
    if (!first.threw)
        out.digest = sweepDigest(sw, first, &out.report);
    // The gated times are per job, fastest pass, summed over the jobs.
    // The host is shared: a pass slowed by a neighbour for a second
    // would move a per-pass median, but not every pass of every job is
    // slowed, and a job's fastest pass is the figure that repeats from
    // run to run.  A code change moves every pass alike, so it moves
    // the fastest one too.
    const std::size_t n_jobs = sw.jobs.size();
    std::vector<double> best_wall(n_jobs, 0.0), best_cpu(n_jobs, 0.0);
    std::vector<double> wall;
    for (std::size_t i = 0; i < p.batches.size(); ++i) {
        const Batch &b = p.batches[i];
        const std::size_t n = b.records.size();
        out.attempted += n;
        if (b.threw) {
            out.failed += n;
            out.problems.push_back("sweep job failed: " + b.error);
            continue;
        }
        if (p.digests[i] != out.digest) {
            out.failed += n;
            out.problems.push_back("model statistics differ between "
                                   "repeated passes");
            continue;
        }
        for (std::size_t j = 0; j < n_jobs; ++j) {
            if (wall.empty() || b.jobWallS[j] < best_wall[j])
                best_wall[j] = b.jobWallS[j];
            if (wall.empty() || b.jobCpuS[j] < best_cpu[j])
                best_cpu[j] = b.jobCpuS[j];
        }
        wall.push_back(b.wallS);
    }
    double wall_s = 0.0, cpu_s = 0.0;
    for (std::size_t j = 0; j < n_jobs; ++j) {
        wall_s += best_wall[j];
        cpu_s += best_cpu[j];
    }
    out.report.push_back({"system.passes", static_cast<double>(
                              p.batches.size()), "count"});
    out.report.push_back({"system.jobs", static_cast<double>(
                              first.records.size()), "count"});
    out.report.push_back({"system.run_cache_hits", static_cast<double>(
                              first.cacheHits), "count"});
    out.report.push_back({"system.run_cache_lookups", static_cast<double>(
                              first.cacheHits + first.cacheMisses),
                          "count"});
    out.report.push_back({"system.workers", kSweepWorkers, "count"});

    out.endToEnd = {
        {"setup_s", quantile(setup, 0.1), "s"},
        {"wall_s", wall_s, "s"},
        {"host_cpu_s", cpu_s, "s"},
        {"sim_minstr_per_s", wall_s > 0 ? first.minstr() / wall_s : 0.0,
         "Minstr/s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
    out.report.push_back({"jobs_per_s", wall_s > 0
                              ? static_cast<double>(n_jobs) / wall_s : 0.0,
                          "1/s"});
    out.report.push_back({"system.batch_wall_s_p50", median(wall), "s"});

    if (!opt.trace)
        return out;

    // Traced passes for the other half of the time (at least one).
    LayerTotals totals;
    std::vector<double> traced_wall;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds / 2));
    Batch last;
    do {
        last = runTraced(sw, tracer, totals);
        out.attempted += last.records.size();
        if (last.threw) {
            out.failed += last.records.size();
            out.problems.push_back("traced job failed: " + last.error);
            break;
        }
        if (sweepDigest(sw, last, nullptr) != out.digest) {
            out.failed += last.records.size();
            out.problems.push_back("model statistics differ with "
                                   "tracing on");
        }
        traced_wall.push_back(last.wallS);
    } while (Clock::now() < deadline);
    replayWorkloads(totals);

    std::vector<RunJob> unique_jobs;
    std::vector<RunRecord> unique_records;
    for (std::size_t j = 0; j < sw.jobs.size(); ++j) {
        if (last.executed[j]) {
            unique_jobs.push_back(sw.jobs[j]);
            unique_records.push_back(last.records[j]);
        }
    }
    std::string err;
    if (!probeCodecAndStore(unique_jobs, unique_records,
                            opt.workdir + "/store-probe", tracer, totals,
                            err)) {
        out.failed += 1;
        out.problems.push_back(err);
    }
    const double overhead =
        traced_wall.empty() ? 0.0 : median(traced_wall) / median(wall) - 1;
    out.perLayer = perLayerMetrics(totals, overhead);
    return out;
}

} // namespace perfbench
