/**
 * @file
 * Headline result (Sections 1 and 5): on a CMP running heterogeneous
 * workloads, VPC improves throughput over the FCFS baseline by
 * eliminating negative interference -- the paper reports +14% on the
 * harmonic mean of normalized IPCs and +25% on the minimum normalized
 * IPC.
 *
 * Runs a set of heterogeneous 4-benchmark SPEC mixes under FCFS and
 * under VPC with equal shares (phi_i = beta_i = 0.25); each thread's
 * IPC is normalized to its target IPC on the equivalently provisioned
 * private machine (phi = beta = 0.25).
 *
 * Every simulation (4 private targets + FCFS + VPC per mix) is an
 * independent job dispatched through the sweep harness, so the bench
 * scales with cores; results land in per-job slots and the table is
 * printed in mix order afterwards, making stdout identical for any
 * worker count -- and identical between the skipping kernel and
 * --no-skip (the differential check the perf claim rests on).
 *
 * Every job routes through a content-addressed RunCache: the four
 * private targets are keyed by (private config, workload spec/base/
 * seed, run lengths), so a benchmark appearing in the same thread
 * slot across mixes is simulated once and replayed from the in-
 * process map thereafter; --run-cache=DIR adds an on-disk store so a
 * rerun replays everything.  stdout is byte-identical with the cache
 * cold, warm, or absent (the cache differential test enforces it).
 *
 * Flags:
 *   --smoke       2 mixes, short runs, --paranoid auditing + watchdog
 *                 (serial: auditors install process-global hooks;
 *                 rejects an explicit --threads > 1)
 *   --quick       2 mixes, short runs, no auditors -- the bounded mode
 *                 that still accepts --threads > 1, so CI can run the
 *                 sweep thread pool and the run cache's in-flight
 *                 dedup under TSan without paying for the full mix set
 *   --profile     attach the cycle-attribution profiler to every
 *                 simulation; the merged per-component table goes to
 *                 stderr and into the JSON's "profile" section
 *                 (model results and stdout are unchanged)
 *   --no-skip     run the naive kernel loop in every simulation
 *   --serial      one worker thread
 *   --threads=N   N sweep worker threads (default: auto)
 *   --run-cache=DIR  persist run records in DIR and replay them on
 *                 reruns (hit/miss counts go to stderr and the JSON)
 *   --json=PATH   JSON report path (default BENCH_headline.json)
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "system/sweep.hh"
#include "system/table_printer.hh"

using namespace vpc;

namespace
{

constexpr Cycle kWarmup = 80'000;
constexpr Cycle kMeasure = 200'000;

using Mix = std::array<std::string, 4>;

struct BenchOptions
{
    bool smoke = false;
    bool quick = false;
    bool skip = true;
    bool profile = false;
    unsigned threads = 0;
    std::string jsonPath;
    std::string runCacheDir;
    RunLengths lens{kWarmup, kMeasure};
};

/** Fold one cached-or-executed result into the report. */
void
report(const RunResult &r, BenchReporter &rep)
{
    rep.addRun(r.record.endCycle, r.record.kernel);
    if (r.hasProfile)
        rep.addProfile(r.profile);
}

std::vector<double>
runMix(const Mix &mix, ArbiterPolicy policy, const BenchOptions &opt,
       RunCache &cache, BenchReporter &rep)
{
    RunJob job;
    job.config = makeBaselineConfig(4, policy);
    job.config.kernelSkip = opt.skip;
    job.config.profile = opt.profile;
    if (opt.smoke) {
        job.config.verify.paranoid = 1;
        job.config.verify.watchdogCycles = 10'000;
    }
    for (unsigned t = 0; t < 4; ++t)
        job.workloads.push_back(benchWorkloadKey(mix[t], t));
    job.warmup = opt.lens.warmup;
    job.measure = opt.lens.measure;
    RunResult r = runAndMeasureCached(job, &cache);
    report(r, rep);
    return r.record.stats.ipc;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--smoke") == 0) {
            opt.smoke = true;
        } else if (std::strcmp(arg, "--quick") == 0) {
            opt.quick = true;
        } else if (std::strcmp(arg, "--no-skip") == 0) {
            opt.skip = false;
        } else if (std::strcmp(arg, "--profile") == 0) {
            opt.profile = true;
        } else if (std::strcmp(arg, "--serial") == 0) {
            opt.threads = 1;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            opt.threads = static_cast<unsigned>(
                std::strtoul(arg + 10, nullptr, 10));
        } else if (std::strncmp(arg, "--run-cache=", 12) == 0) {
            opt.runCacheDir = arg + 12;
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            opt.jsonPath = arg + 7;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg);
            return 1;
        }
    }

    // Heterogeneous mixes.  The paper's throughput claim concerns the
    // contended regime ("on a four thread workload, the cache
    // approaches full utilization"), so the mixes are weighted toward
    // the aggressive top of Figure 6, with moderate and meek partners
    // mixed in.
    std::vector<Mix> mixes = {
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
    if (opt.smoke) {
        // Auditors register process-global panic-dump hooks; audited
        // jobs must stay off the thread pool (see system/sweep.hh).
        // Reject an explicit conflicting request instead of silently
        // overriding it.
        if (opt.threads > 1) {
            std::fprintf(stderr,
                         "bench_headline: --smoke runs paranoid "
                         "auditors with process-global state and is "
                         "strictly serial; drop --threads > 1\n");
            return 1;
        }
        mixes.resize(2);
        opt.lens = RunLengths{2'000, 8'000};
        opt.threads = 1;
    } else if (opt.quick) {
        // Same bound as --smoke but without the auditors, so any
        // --threads count is fair game (this is the TSan CI entry
        // point for the sweep thread pool).
        mixes.resize(2);
        opt.lens = RunLengths{2'000, 8'000};
    }

    SystemConfig base = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    base.kernelSkip = opt.skip;
    base.profile = opt.profile;
    if (opt.smoke) {
        base.verify.paranoid = 1;
        base.verify.watchdogCycles = 10'000;
    }

    BenchReporter rep(opt.smoke ? "headline_smoke"
                      : opt.quick ? "headline_quick" : "headline");
    // Stamp reduced-scale rows so bench_diff never wall-gates a
    // quick row against a full one (--smoke already writes under a
    // different bench name; --quick shares "headline_quick" but the
    // stamp also guards hand-renamed rows).
    rep.setQuick(opt.smoke || opt.quick);
    // Always-on in-process memoization (repeated private targets
    // collapse); --run-cache adds the cross-invocation disk store.
    RunCache cache(opt.runCacheDir);

    // One job per simulation: per mix, 4 private-machine targets plus
    // the FCFS and VPC shared runs.  Results go into per-index slots;
    // nothing is printed until every job joined.
    const std::size_t n = mixes.size();
    std::vector<std::array<double, 4>> targets(n);
    std::vector<std::vector<double>> fcfs(n), vpc_ipc(n);

    struct Job { std::size_t mix; int kind; };  // kind 0-3: target
                                                // thread, 4: FCFS,
                                                // 5: VPC
    std::vector<Job> jobs;
    for (std::size_t m = 0; m < n; ++m) {
        for (int k = 0; k < 6; ++k)
            jobs.push_back({m, k});
    }

    parallelFor(jobs.size(), [&](std::size_t j) {
        const Job &job = jobs[j];
        const Mix &mix = mixes[job.mix];
        if (job.kind < 4) {
            // Target runs clone the thread's workload with seed 1
            // (see targetIpc), so the content key pins seed 1 too.
            unsigned t = static_cast<unsigned>(job.kind);
            WorkloadKey key{mix[t], benchThreadBase(t), 1};
            RunResult r =
                runTargetIpc(base, key, 0.25, 0.25, &cache, opt.lens);
            targets[job.mix][t] = r.record.stats.ipc.at(0);
            report(r, rep);
        } else if (job.kind == 4) {
            fcfs[job.mix] = runMix(mix, ArbiterPolicy::Fcfs, opt,
                                   cache, rep);
        } else {
            vpc_ipc[job.mix] = runMix(mix, ArbiterPolicy::Vpc, opt,
                                      cache, rep);
        }
    }, opt.threads);
    rep.setRunCacheStats(cache);
    rep.finish();

    TablePrinter t("Headline: heterogeneous 4-thread mixes, FCFS vs "
                   "VPC (normalized IPC vs the phi=beta=.25 private "
                   "target)",
                   {"Mix", "HM FCFS", "HM VPC", "Min FCFS", "Min VPC"},
                   12);

    double hm_fcfs_sum = 0.0, hm_vpc_sum = 0.0;
    double min_fcfs_sum = 0.0, min_vpc_sum = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
        std::vector<double> nf, nv;
        for (unsigned i = 0; i < 4; ++i) {
            double tgt = targets[m][i] > 0 ? targets[m][i] : 1e-9;
            nf.push_back(fcfs[m][i] / tgt);
            nv.push_back(vpc_ipc[m][i] / tgt);
        }
        double hm_f = harmonicMean(nf), hm_v = harmonicMean(nv);
        double mn_f = minimum(nf), mn_v = minimum(nv);
        hm_fcfs_sum += hm_f;
        hm_vpc_sum += hm_v;
        min_fcfs_sum += mn_f;
        min_vpc_sum += mn_v;
        const Mix &mix = mixes[m];
        t.row({mix[0] + "+" + mix[1] + "+" + mix[2] + "+" + mix[3],
               TablePrinter::num(hm_f), TablePrinter::num(hm_v),
               TablePrinter::num(mn_f), TablePrinter::num(mn_v)});
    }
    t.rule();
    double cnt = static_cast<double>(n);
    double hm_gain = (hm_vpc_sum - hm_fcfs_sum) / hm_fcfs_sum * 100.0;
    double min_gain =
        (min_vpc_sum - min_fcfs_sum) / min_fcfs_sum * 100.0;
    t.row({"average", TablePrinter::num(hm_fcfs_sum / cnt),
           TablePrinter::num(hm_vpc_sum / cnt),
           TablePrinter::num(min_fcfs_sum / cnt),
           TablePrinter::num(min_vpc_sum / cnt)});
    t.rule();
    std::printf("VPC vs FCFS: harmonic-mean normalized IPC %+.1f%% "
                "(paper: +14%%), minimum normalized IPC %+.1f%% "
                "(paper: +25%%)\n", hm_gain, min_gain);

    rep.printSummary();
    rep.writeJson(opt.jsonPath);
    return 0;
}
