/**
 * @file
 * Sweep-service saturation bench: socket transport vs spool polling.
 *
 * Floods an in-process daemon with thousands of near-trivial jobs and
 * measures the two transports the service offers:
 *
 *  - throughput: all jobs submitted up front (batched frames over the
 *    socket; atomic renames into the spool), wall time until the last
 *    settles -> jobs/sec under saturation;
 *  - latency: serial submit-to-result round trips (window of one), so
 *    the percentiles measure dispatch + execution + notification and
 *    not queueing.  The socket path is push-driven; the spool path
 *    pays the client's poll quantum by construction.
 *
 * Both phases run the *same* job set in separate spool directories,
 * so every digest executes once per transport and the stored records
 * can be compared bit-for-bit against each other and against fresh
 * daemon-less execution.  The bench fails (exit 1) on any identity
 * mismatch or any exactly-once violation (a digest with != 1 journal
 * start, a quarantine, a leftover pending/running job).  The full run
 * additionally enforces the headline contract: >= 1000 jobs completed
 * over the socket and a median socket round trip at least 5x faster
 * than the spool-polling tier.
 *
 * stdout carries the verdicts; wall-clock numbers go to stderr and
 * into the JSON's "service" section (tools/bench_diff gates on the
 * jobs/sec fields).
 *
 * Flags:
 *   --smoke       reduced scale, contract checks only (tier-1 CI)
 *   --json=PATH   JSON report path (default
 *                 BENCH_service_saturation.json)
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/job_codec.hh"
#include "service/journal.hh"
#include "service/spool.hh"
#include "service/transport.hh"
#include "system/experiment.hh"

using namespace vpc;

namespace
{

using Clock = std::chrono::steady_clock;

/** A near-trivial one-processor job; @p seed varies the identity. */
RunJob
tinyJob(std::uint64_t seed)
{
    RunJob job;
    job.config = makeBaselineConfig(1, ArbiterPolicy::RowFcfs);
    job.workloads = {WorkloadKey{seed % 2 == 0 ? "loads" : "stores",
                                 threadBaseAddr(0), seed}};
    job.warmup = 100;
    job.measure = 400;
    return job;
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** One transport phase's measurements. */
struct PhaseResult
{
    std::size_t jobs = 0;         //!< throughput jobs settled
    double throughputMs = 0.0;    //!< wall time to settle them all
    double jobsPerSec = 0.0;
    std::vector<double> latencyMs; //!< serial round trips
    bool ok = true;               //!< contract checks passed
};

/** An in-process daemon serving @p dir on a background thread. */
struct LiveDaemon
{
    LiveDaemon(const std::string &dir, bool socket)
    {
        cfg.spoolDir = dir;
        cfg.workers = 2;
        cfg.pollMs = 1;
        cfg.socket = socket;
        daemon = std::make_unique<SweepDaemon>(cfg);
        if (!daemon->start()) {
            std::fprintf(stderr, "saturation: daemon failed to start "
                                 "in %s\n", dir.c_str());
            return;
        }
        running = true;
        runner = std::thread([this] { daemon->run(stop); });
    }

    ~LiveDaemon()
    {
        if (running) {
            stop.store(true);
            runner.join();
        }
    }

    DaemonConfig cfg;
    std::unique_ptr<SweepDaemon> daemon;
    std::atomic<bool> stop{false};
    std::thread runner;
    bool running = false;
};

/**
 * Post-phase audit: every digest settled in done/ exactly once (one
 * journal "start", no quarantine, nothing still queued or claimed).
 */
bool
exactlyOnce(const std::string &dir,
            const std::vector<std::uint64_t> &digests,
            const char *transport)
{
    JobSpool spool(dir);
    bool ok = true;
    if (!spool.list(JobState::Pending).empty() ||
        !spool.list(JobState::Running).empty()) {
        std::printf("EXACTLY-ONCE VIOLATION (%s): jobs left "
                    "pending/running\n", transport);
        ok = false;
    }
    std::size_t failed = spool.list(JobState::Failed).size();
    if (failed != 0) {
        std::printf("EXACTLY-ONCE VIOLATION (%s): %zu job(s) "
                    "quarantined\n", transport, failed);
        ok = false;
    }
    JobJournal journal(dir + "/journal.log");
    auto attempts = journal.replayAttempts();
    std::size_t wrong = 0;
    for (std::uint64_t d : digests) {
        if (spool.state(d) != JobState::Done || attempts[d] != 1)
            ++wrong;
    }
    if (wrong != 0) {
        std::printf("EXACTLY-ONCE VIOLATION (%s): %zu digest(s) not "
                    "settled with exactly one attempt\n", transport,
                    wrong);
        ok = false;
    }
    return ok;
}

/**
 * Socket phase: batched frame submits, pushed completions.
 * @p jobs are the throughput set, @p lat_jobs the serial-latency set.
 */
PhaseResult
runSocketPhase(const std::string &dir,
               const std::vector<RunJob> &jobs,
               const std::vector<RunJob> &lat_jobs)
{
    PhaseResult res;
    LiveDaemon live(dir, /*socket=*/true);
    if (!live.running) {
        res.ok = false;
        return res;
    }

    TransportConfig tc;
    tc.socketPath = defaultSocketPath(dir);
    TransportClient client(tc);
    if (!client.connect()) {
        std::fprintf(stderr, "saturation: socket connect failed\n");
        res.ok = false;
        return res;
    }

    // Throughput: everything in flight at once, batched 64 per frame.
    Clock::time_point t0 = Clock::now();
    constexpr std::size_t kBatch = 64;
    std::size_t settled = 0;
    for (std::size_t i = 0; i < jobs.size(); i += kBatch) {
        std::vector<std::string> encoded;
        for (std::size_t j = i; j < std::min(i + kBatch, jobs.size());
             ++j)
            encoded.push_back(encodeJob(jobs[j]));
        std::vector<TransportClient::Ack> acks;
        if (!client.submitBatch(encoded, acks)) {
            res.ok = false;
            return res;
        }
        // A duplicate collapse acks terminal immediately and pushes
        // no completion; count it settled here.
        for (const auto &ack : acks)
            if (ack.state == JobState::Done)
                ++settled;
    }
    while (settled < jobs.size()) {
        TransportClient::Completion comp;
        if (!client.nextCompletion(comp, 240'000)) {
            std::fprintf(stderr, "saturation: completion stream "
                                 "stalled (%zu/%zu)\n", settled,
                         jobs.size());
            res.ok = false;
            return res;
        }
        ++settled;
    }
    Clock::time_point t1 = Clock::now();
    res.jobs = settled;
    res.throughputMs = msBetween(t0, t1);
    res.jobsPerSec = static_cast<double>(settled) /
                     (res.throughputMs / 1'000.0);

    // Latency: one job in flight at a time, submit-to-push measured.
    for (const RunJob &job : lat_jobs) {
        Clock::time_point s0 = Clock::now();
        std::vector<TransportClient::Ack> acks;
        if (!client.submitBatch({encodeJob(job)}, acks)) {
            res.ok = false;
            return res;
        }
        TransportClient::Completion comp;
        if (!client.nextCompletion(comp, 240'000) ||
            comp.state != JobState::Done) {
            res.ok = false;
            return res;
        }
        res.latencyMs.push_back(msBetween(s0, Clock::now()));
    }
    return res;
}

/**
 * Spool phase: rename-based submits, state polled from the
 * directories.  Same daemon scheduling, no socket anywhere.
 */
PhaseResult
runSpoolPhase(const std::string &dir,
              const std::vector<RunJob> &jobs,
              const std::vector<RunJob> &lat_jobs,
              std::uint64_t poll_ms)
{
    PhaseResult res;
    LiveDaemon live(dir, /*socket=*/false);
    if (!live.running) {
        res.ok = false;
        return res;
    }

    ServiceClient client(dir, "", poll_ms, /*use_socket=*/false);
    Clock::time_point t0 = Clock::now();
    std::vector<std::uint64_t> digests;
    for (const RunJob &job : jobs)
        digests.push_back(client.submit(job));
    for (std::uint64_t d : digests) {
        if (client.wait(d, 240'000) != JobState::Done) {
            std::fprintf(stderr, "saturation: spool job %#llx did "
                                 "not settle\n",
                         static_cast<unsigned long long>(d));
            res.ok = false;
            return res;
        }
    }
    Clock::time_point t1 = Clock::now();
    res.jobs = jobs.size();
    res.throughputMs = msBetween(t0, t1);
    res.jobsPerSec = static_cast<double>(res.jobs) /
                     (res.throughputMs / 1'000.0);

    for (const RunJob &job : lat_jobs) {
        Clock::time_point s0 = Clock::now();
        ServedBy served = ServedBy::Local;
        client.runJob(job, &served);
        if (served != ServedBy::Daemon) {
            std::fprintf(stderr, "saturation: spool round trip was "
                                 "not daemon-served\n");
            res.ok = false;
            return res;
        }
        res.latencyMs.push_back(msBetween(s0, Clock::now()));
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--smoke") == 0) {
            smoke = true;
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            jsonPath = arg + 7;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg);
            return 1;
        }
    }

    const std::size_t kThroughputJobs = smoke ? 1'000 : 1'500;
    const std::size_t kLatencyJobs = smoke ? 30 : 100;
    const std::uint64_t kSpoolPollMs = 20;
    // The spool throughput leg re-runs a slice, not the full set: it
    // is O(files) in the spool either way, and the socket leg is the
    // one the >=1000-jobs contract binds.
    const std::size_t kSpoolThroughputJobs = smoke ? 200 : 1'500;

    // A fresh directory per run, so concurrent runs never share a
    // spool or delete each other's; only this one is removed at exit.
    std::string base = std::filesystem::temp_directory_path() /
                       "vpc_bench_saturation.XXXXXX";
    if (::mkdtemp(base.data()) == nullptr) {
        std::fprintf(stderr, "cannot create %s: %s\n", base.c_str(),
                     std::strerror(errno));
        return 1;
    }
    std::string socketDir = base + "/socket";
    std::string spoolDir = base + "/spool";

    // Identical job sets for both transports (seeds 1..N for the
    // throughput set, 100000+ for the serial-latency set).
    std::vector<RunJob> jobs, latJobs;
    std::vector<std::uint64_t> digests, latDigests;
    for (std::size_t s = 1; s <= kThroughputJobs; ++s) {
        jobs.push_back(tinyJob(s));
        digests.push_back(runDigest(jobs.back()));
    }
    for (std::size_t s = 0; s < kLatencyJobs; ++s) {
        latJobs.push_back(tinyJob(100'000 + s));
        latDigests.push_back(runDigest(latJobs.back()));
    }
    std::vector<RunJob> spoolJobs(
        jobs.begin(),
        jobs.begin() + static_cast<std::ptrdiff_t>(
                           std::min(kSpoolThroughputJobs,
                                    jobs.size())));

    BenchReporter rep(smoke ? "service_saturation_smoke"
                            : "service_saturation");
    rep.setQuick(smoke);

    PhaseResult sock = runSocketPhase(socketDir, jobs, latJobs);
    PhaseResult spool =
        runSpoolPhase(spoolDir, spoolJobs, latJobs, kSpoolPollMs);
    rep.finish();

    bool ok = sock.ok && spool.ok;

    // Exactly-once audits over both spools.
    std::vector<std::uint64_t> socketAll = digests;
    socketAll.insert(socketAll.end(), latDigests.begin(),
                     latDigests.end());
    std::vector<std::uint64_t> spoolAll(
        digests.begin(),
        digests.begin() + static_cast<std::ptrdiff_t>(
                              spoolJobs.size()));
    spoolAll.insert(spoolAll.end(), latDigests.begin(),
                    latDigests.end());
    ok = exactlyOnce(socketDir, socketAll, "socket") && ok;
    ok = exactlyOnce(spoolDir, spoolAll, "spool") && ok;

    // Identity: spread spot checks, socket store vs spool store vs
    // fresh daemon-less execution — bit-identical everywhere.
    {
        RunCache socketStore(socketDir + "/cache");
        RunCache spoolStore(spoolDir + "/cache");
        std::size_t mismatches = 0;
        const std::size_t kChecks = 8;
        for (std::size_t i = 0; i < kChecks; ++i) {
            std::size_t idx = i * (spoolJobs.size() - 1) /
                              (kChecks - 1);
            std::uint64_t d = digests[idx];
            RunRecord a, b;
            if (!socketStore.probe(d, a) ||
                !spoolStore.probe(d, b)) {
                ++mismatches;
                continue;
            }
            RunCache scratch("");
            RunResult fresh =
                runAndMeasureCached(jobs[idx], &scratch);
            const RunRecord &c = fresh.record;
            bool same =
                a.endCycle == b.endCycle && a.endCycle == c.endCycle &&
                a.stats.cycles == b.stats.cycles &&
                a.stats.cycles == c.stats.cycles &&
                a.stats.ipc == b.stats.ipc &&
                a.stats.ipc == c.stats.ipc &&
                a.stats.instrs == b.stats.instrs &&
                a.stats.instrs == c.stats.instrs &&
                a.stats.l2Misses == b.stats.l2Misses &&
                a.stats.l2Misses == c.stats.l2Misses;
            if (!same)
                ++mismatches;
        }
        if (mismatches != 0) {
            std::printf("IDENTITY VIOLATION: %zu/%zu spot checks "
                        "diverged across socket/spool/local\n",
                        mismatches, kChecks);
            ok = false;
        } else {
            std::printf("results bit-identical across socket, spool "
                        "and local execution (%zu spot checks)\n",
                        kChecks);
        }
    }

    double sockP50 = percentile(sock.latencyMs, 0.50);
    double sockP90 = percentile(sock.latencyMs, 0.90);
    double sockP99 = percentile(sock.latencyMs, 0.99);
    double spoolP50 = percentile(spool.latencyMs, 0.50);
    double spoolP90 = percentile(spool.latencyMs, 0.90);
    double spoolP99 = percentile(spool.latencyMs, 0.99);
    double speedup = sockP50 > 0.0 ? spoolP50 / sockP50 : 0.0;

    std::printf("socket: %zu jobs settled exactly once\n", sock.jobs);
    std::printf("spool:  %zu jobs settled exactly once\n", spool.jobs);
    std::printf("median submit-to-result: socket %.1fx faster than "
                "spool polling\n", speedup);

    std::fprintf(stderr,
                 "saturation: socket  %5zu jobs  %8.1f ms  "
                 "%7.0f jobs/s  lat p50/p90/p99 %.2f/%.2f/%.2f ms\n",
                 sock.jobs, sock.throughputMs, sock.jobsPerSec,
                 sockP50, sockP90, sockP99);
    std::fprintf(stderr,
                 "saturation: spool   %5zu jobs  %8.1f ms  "
                 "%7.0f jobs/s  lat p50/p90/p99 %.2f/%.2f/%.2f ms\n",
                 spool.jobs, spool.throughputMs, spool.jobsPerSec,
                 spoolP50, spoolP90, spoolP99);

    if (!smoke) {
        if (sock.jobs < 1'000) {
            std::printf("CONTRACT VIOLATION: only %zu jobs over the "
                        "socket (need >= 1000)\n", sock.jobs);
            ok = false;
        }
        if (speedup < 5.0) {
            std::printf("CONTRACT VIOLATION: socket median only "
                        "%.1fx faster than spool (need >= 5x)\n",
                        speedup);
            ok = false;
        }
    }

    char extra[640];
    std::snprintf(
        extra, sizeof extra,
        "{\n"
        "    \"socket_jobs\": %zu,\n"
        "    \"spool_jobs\": %zu,\n"
        "    \"socket_jobs_per_sec\": %.1f,\n"
        "    \"spool_jobs_per_sec\": %.1f,\n"
        "    \"socket_submit_ms_p50\": %.3f,\n"
        "    \"socket_submit_ms_p90\": %.3f,\n"
        "    \"socket_submit_ms_p99\": %.3f,\n"
        "    \"spool_submit_ms_p50\": %.3f,\n"
        "    \"spool_submit_ms_p90\": %.3f,\n"
        "    \"spool_submit_ms_p99\": %.3f,\n"
        "    \"median_speedup\": %.2f\n"
        "  }",
        sock.jobs, spool.jobs, sock.jobsPerSec, spool.jobsPerSec,
        sockP50, sockP90, sockP99, spoolP50, spoolP90, spoolP99,
        speedup);
    rep.setExtraSection("service", extra);

    rep.printSummary();
    rep.writeJson(jsonPath);
    std::filesystem::remove_all(base);
    return ok ? 0 : 1;
}
