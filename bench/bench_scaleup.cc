/**
 * @file
 * Big-CMP scale-up sweep over machine size.
 *
 * Runs the scaled Table 1 machine (makeScaledCmpConfig: 8/16/32
 * processors, one 8 MB L2 bank per two processors, interconnect
 * deepened with size) one size after another, so each row's wall time
 * is the cost of simulating that machine on one host core.
 *
 * stdout carries only model-derived results (the per-size table), so
 * it is byte-identical on any host.  Wall-clock numbers go to stderr
 * and into BENCH_scaleup.json: the "scaleup" section holds one row per
 * machine size, and the standard machine block records the host they
 * were measured on (tools/bench_diff refuses to compare wall times
 * across different machines).
 *
 * Flags:
 *   --smoke       8 and 16 processors, short runs (bounded enough for
 *                 tier-1 CI)
 *   --profile     attach the cycle-attribution profiler to every
 *                 simulation; the merged table lands in the JSON
 *   --json=PATH   JSON report path (default BENCH_scaleup.json)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "system/table_printer.hh"

using namespace vpc;

namespace
{

/** One measured machine size. */
struct Cell
{
    unsigned procs = 0;
    double wallMs = 0.0;
    RunRecord record;
};

/** Workload specs cycled across the scaled machine's threads. */
const char *const kSpecs[] = {"art",  "mcf",    "mesa", "crafty",
                              "gzip", "swim",   "vpr",  "gcc"};

RunJob
makeJob(unsigned procs, bool profile, const RunLengths &lens)
{
    RunJob job;
    job.config = makeScaledCmpConfig(procs, ArbiterPolicy::Vpc);
    job.config.profile = profile;
    for (unsigned t = 0; t < procs; ++t) {
        job.workloads.push_back(benchWorkloadKey(
            kSpecs[t % (sizeof(kSpecs) / sizeof(kSpecs[0]))], t));
    }
    job.warmup = lens.warmup;
    job.measure = lens.measure;
    return job;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool profile = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(arg, "--profile") == 0) {
            profile = true;
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            jsonPath = arg + 7;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg);
            return 1;
        }
    }

    std::vector<unsigned> sizes = smoke
        ? std::vector<unsigned>{8, 16}
        : std::vector<unsigned>{8, 16, 32};
    const RunLengths lens = smoke ? RunLengths{2'000, 6'000}
                                  : RunLengths{20'000, 80'000};

    BenchReporter rep(smoke ? "scaleup_smoke" : "scaleup");

    std::vector<Cell> cells;
    for (unsigned procs : sizes) {
        RunJob job = makeJob(procs, profile, lens);
        auto t0 = std::chrono::steady_clock::now();
        RunResult r = runAndMeasureCached(job, nullptr);
        auto t1 = std::chrono::steady_clock::now();
        Cell cell;
        cell.procs = procs;
        cell.wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        cell.record = r.record;
        rep.addRun(r.record.endCycle, r.record.kernel);
        if (r.hasProfile)
            rep.addProfile(r.profile);
        cells.push_back(std::move(cell));
    }
    rep.finish();

    // stdout: model results only (identical on every host).
    TablePrinter t("Scale-up: big-CMP machines under VPC (equal "
                   "shares), model results",
                   {"Procs", "Banks", "Agg IPC", "L2 misses",
                    "Bus util"},
                   12);
    for (const Cell &c : cells) {
        double aggIpc = 0.0;
        std::uint64_t misses = 0;
        for (double v : c.record.stats.ipc)
            aggIpc += v;
        for (std::uint64_t v : c.record.stats.l2Misses)
            misses += v;
        t.row({std::to_string(c.procs), std::to_string(c.procs / 2),
               TablePrinter::num(aggIpc), std::to_string(misses),
               TablePrinter::num(c.record.stats.busUtil)});
    }
    t.rule();

    // stderr + JSON: the wall times (host-dependent).
    std::string rows = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "%s\n    {\"procs\": %u, \"wall_ms\": %.1f, "
                      "\"sim_cycles\": %llu}",
                      i ? "," : "", c.procs, c.wallMs,
                      static_cast<unsigned long long>(
                          c.record.endCycle));
        rows += buf;
        std::fprintf(stderr, "scaleup: %2u procs: %7.1f ms wall\n",
                     c.procs, c.wallMs);
    }
    rows += "\n  ]";
    rep.setExtraSection("scaleup", rows);

    rep.printSummary();
    rep.writeJson(jsonPath);
    return 0;
}
