/**
 * @file
 * service_flood: an in-process SweepDaemon (two workers, socket
 * transport, spool, journal and disk run cache in a fresh directory)
 * driven by one client thread with thousands of near-trivial jobs.
 *
 * Simulation is a small share of the work here; transport, codec,
 * spool renames, journal appends and run-cache publishes dominate —
 * the mirror image of the two sweeps.  A pass has three phases:
 *
 *  1. closed batches: 1500 jobs submitted in 64-job frames, every
 *     pushed completion awaited and every record fetched;
 *  2. an open loop at 250 jobs/s;
 *  3. an open loop at 1000 jobs/s.
 *
 * Open-loop jobs are sent on a fixed schedule whatever the daemon's
 * progress (independent users), and each is timed from the instant it
 * was due to its pushed completion, so a stall also counts against
 * the jobs queued behind it.  How late the generator ran is recorded,
 * and so is the backlog at each quarter of the schedule: a phase whose
 * backlog keeps growing has missed its rate and is not reported as a
 * latency.
 *
 * Output checks: every job settles exactly once (one journal start,
 * nothing left pending, running or quarantined), and a fixed set of
 * spot-checked records is bit-identical to local execution.
 */

#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "layers.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/job_codec.hh"
#include "service/journal.hh"
#include "service/transport.hh"
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

constexpr unsigned kDaemonWorkers = 2;
constexpr std::size_t kBatchJobs = 1500;
constexpr std::size_t kFrameJobs = 64;
constexpr double kRates[] = {250.0, 1000.0};
/** Latency past which an open-loop job counts as failed. */
constexpr double kLatencyLimitMs = 1000.0;
constexpr std::uint64_t kWaitMs = 60'000;
constexpr int kSetupReps = 5;
/** Spot checks: spread over the first batch, first of each loop. */
constexpr std::size_t kBatchChecks = 32;
constexpr std::size_t kLoopChecks = 16;

/** A near-trivial one-processor job; @p seed varies its identity. */
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

/**
 * Job @p i of stream @p stream (closed batch b is stream b; the open
 * loops and the spool probe use streams 1000+).  Streams never share a
 * job, so every submit is a fresh digest.
 */
RunJob
floodJob(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    return tinyJob((mix64(seed) >> 8) + (stream << 32) + i);
}

constexpr std::uint64_t kLoopStream = 1000;
constexpr std::uint64_t kSpoolStream = 1002;

/** An in-process daemon serving @p dir on a background thread. */
class LiveDaemon
{
  public:
    LiveDaemon(const std::string &dir, Tracer *tracer)
    {
        DaemonConfig cfg;
        cfg.spoolDir = dir;
        cfg.workers = kDaemonWorkers;
        daemon_ = std::make_unique<SweepDaemon>(cfg);
        Tracer::Scope s(tracer, "SweepDaemon::start", 0, 0);
        if (!daemon_->start())
            return;
        startMs_ = s.elapsedMs();
        runner_ = std::thread([this] { daemon_->run(stop_); });
    }

    ~LiveDaemon()
    {
        if (runner_.joinable()) {
            stop_.store(true);
            runner_.join();
        }
    }

    LiveDaemon(const LiveDaemon &) = delete;
    LiveDaemon &operator=(const LiveDaemon &) = delete;

    bool running() const { return runner_.joinable(); }
    double startMs() const { return startMs_; }

  private:
    std::unique_ptr<SweepDaemon> daemon_;
    std::atomic<bool> stop_{false};
    double startMs_ = 0.0;
    std::thread runner_;
};

/** A daemon plus the client connections one pass drives it with. */
struct Session
{
    std::string dir;
    std::unique_ptr<LiveDaemon> daemon;
    std::unique_ptr<TransportClient> socket;
    std::unique_ptr<ServiceClient> client; //!< spool submit + fetch
    bool ok = false;
};

/** Daemon start, recovery and client connect in a fresh directory. */
std::unique_ptr<Session>
openSession(const std::string &dir, Tracer *tracer)
{
    auto s = std::make_unique<Session>();
    s->dir = dir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    s->daemon = std::make_unique<LiveDaemon>(dir, tracer);
    if (!s->daemon->running())
        return s;
    TransportConfig tc;
    tc.socketPath = defaultSocketPath(dir);
    s->socket = std::make_unique<TransportClient>(tc);
    if (!s->socket->connect(2000))
        return s;
    s->client = std::make_unique<ServiceClient>(dir, "", 1, false);
    s->ok = true;
    return s;
}

/** Submit @p jobs in frames; @return false when the socket failed. */
bool
submitFrame(Session &s, const std::vector<RunJob> &jobs, Tracer *tracer,
            std::vector<TransportClient::Ack> &acks)
{
    std::vector<std::string> encoded;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        Tracer::Scope e(tracer, "encodeJob", 0, j);
        encoded.push_back(encodeJob(jobs[j]));
    }
    Tracer::Scope sb(tracer, "TransportClient::submitBatch", 0, 0);
    return s.socket->submitBatch(encoded, acks, kWaitMs) &&
           acks.size() == jobs.size();
}

struct ClosedResult
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double minstr = 0.0;
    std::vector<double> settleMs;
    std::vector<double> fetchUs;
};

/** Phase 1: one closed batch of kBatchJobs jobs from @p stream. */
ClosedResult
closedBatch(Session &s, std::uint64_t seed, std::uint64_t stream,
            Tracer *tracer, std::vector<std::uint64_t> &digests,
            std::uint64_t &failed)
{
    ClosedResult r;
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::unordered_map<std::uint64_t, Clock::time_point> acked;
    std::vector<std::uint64_t> mine;
    for (std::size_t i = 0; i < kBatchJobs; i += kFrameJobs) {
        std::vector<RunJob> frame;
        for (std::size_t j = i; j < std::min(i + kFrameJobs, kBatchJobs);
             ++j)
            frame.push_back(floodJob(seed, stream, j));
        std::vector<TransportClient::Ack> acks;
        if (!submitFrame(s, frame, tracer, acks)) {
            failed += kBatchJobs - i;
            break;
        }
        const Clock::time_point now = Clock::now();
        for (const TransportClient::Ack &a : acks) {
            if (a.state == JobState::Absent) {
                ++failed;
                continue;
            }
            mine.push_back(a.digest);
            if (a.state != JobState::Done)
                acked[a.digest] = now;
        }
    }
    while (!acked.empty()) {
        TransportClient::Completion comp;
        bool got;
        {
            Tracer::Scope w(tracer, "TransportClient::nextCompletion", 0,
                            0);
            got = s.socket->nextCompletion(comp, kWaitMs);
        }
        if (!got) {
            failed += acked.size();
            break;
        }
        auto it = acked.find(comp.digest);
        if (it == acked.end())
            continue;
        r.settleMs.push_back(msBetween(it->second, Clock::now()));
        acked.erase(it);
        if (comp.state != JobState::Done)
            ++failed;
    }
    for (std::uint64_t d : mine) {
        RunResult res;
        bool got;
        {
            Tracer::Scope f(tracer, "ServiceClient::fetch", 0, d);
            got = s.client->fetch(d, res);
            r.fetchUs.push_back(f.elapsedMs() * 1e3);
        }
        if (!got) {
            ++failed;
            continue;
        }
        for (std::uint64_t n : res.record.stats.instrs)
            r.minstr += static_cast<double>(n) / 1e6;
    }
    r.wallS = secondsBetween(t0, Clock::now());
    r.cpuS = processCpuSeconds() - cpu0;
    digests.insert(digests.end(), mine.begin(), mine.end());
    return r;
}

struct OpenResult
{
    std::vector<double> latMs;
    std::vector<double> lateMs;
    std::vector<double> ackUs;
    std::array<std::size_t, 4> backlog{}; //!< in flight per quarter
    bool missedRate = false;
    std::size_t jobs = 0;
};

/** Phases 2 and 3: @p n jobs sent at @p rate jobs/s. */
OpenResult
openLoop(Session &s, std::uint64_t seed, std::uint64_t stream,
         double rate, std::size_t n, Tracer *tracer,
         std::vector<std::uint64_t> &digests, std::uint64_t &failed)
{
    OpenResult r;
    r.jobs = n;
    const Clock::time_point t0 = Clock::now();
    auto due = [&](std::size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
    };
    std::unordered_map<std::uint64_t, Clock::time_point> inflight;
    auto settle = [&](const TransportClient::Completion &c) {
        auto it = inflight.find(c.digest);
        if (it == inflight.end())
            return;
        double lat = msBetween(it->second, Clock::now());
        r.latMs.push_back(lat);
        if (c.state != JobState::Done || lat > kLatencyLimitMs)
            ++failed;
        inflight.erase(it);
    };
    std::size_t next = 0, quarter = 0;
    while (next < n || !inflight.empty()) {
        Clock::time_point now = Clock::now();
        if (next < n && now >= due(next)) {
            // Everything already due goes out in one frame.
            std::vector<RunJob> frame;
            std::vector<Clock::time_point> dues;
            while (next < n && due(next) <= now &&
                   frame.size() < kFrameJobs) {
                frame.push_back(floodJob(seed, stream, next));
                dues.push_back(due(next));
                ++next;
            }
            std::vector<TransportClient::Ack> acks;
            const Clock::time_point s0 = Clock::now();
            if (!submitFrame(s, frame, tracer, acks)) {
                failed += n - next + frame.size() + inflight.size();
                return r;
            }
            r.ackUs.push_back(msBetween(s0, Clock::now()) * 1e3);
            for (std::size_t k = 0; k < acks.size(); ++k) {
                r.lateMs.push_back(msBetween(dues[k], s0));
                if (acks[k].state == JobState::Absent) {
                    ++failed;
                    continue;
                }
                digests.push_back(acks[k].digest);
                inflight[acks[k].digest] = dues[k];
                if (acks[k].state == JobState::Done)
                    settle({acks[k].digest, JobState::Done, ""});
            }
            while (quarter < 4 && next >= (quarter + 1) * n / 4)
                r.backlog[quarter++] = inflight.size();
            continue;
        }
        // Wait for a completion until the next send is due.  The wait
        // has whole-millisecond granularity (and nextCompletion rounds
        // its budget down), so a send can run up to 1 ms late; the
        // lateness is recorded and counts against the job's latency.
        std::uint64_t wait_ms = kWaitMs;
        if (next < n) {
            double left = msBetween(now, due(next));
            if (left < 0.25) {
                std::this_thread::sleep_until(due(next));
                continue;
            }
            wait_ms = static_cast<std::uint64_t>(std::ceil(left)) + 1;
        }
        TransportClient::Completion comp;
        bool got;
        {
            Tracer::Scope w(tracer, "TransportClient::nextCompletion", 0,
                            0);
            got = s.socket->nextCompletion(comp, wait_ms);
        }
        if (got) {
            settle(comp);
        } else if (next >= n) {
            failed += inflight.size(); // stalled past the wait budget
            return r;
        }
    }
    // Missing the rate: the backlog grows quarter after quarter.
    const std::array<std::size_t, 4> &b = r.backlog;
    r.missedRate = b[1] < b[2] && b[2] < b[3] &&
                   b[3] > b[0] + std::max<std::size_t>(16, n / 50);
    return r;
}

/** Exactly-once audit of a stopped daemon's spool. */
void
auditExactlyOnce(const std::string &dir,
                 const std::vector<std::uint64_t> &digests,
                 Outcome &out)
{
    JobSpool spool(dir);
    if (!spool.list(JobState::Pending).empty() ||
        !spool.list(JobState::Running).empty())
        out.problems.push_back("exactly-once: jobs left pending/running");
    if (std::size_t q = spool.list(JobState::Failed).size()) {
        out.failed += q;
        out.problems.push_back("exactly-once: " + std::to_string(q) +
                               " job(s) quarantined");
    }
    auto attempts = JobJournal(dir + "/journal.log").replayAttempts();
    std::size_t wrong = 0;
    for (std::uint64_t d : digests) {
        if (spool.state(d) != JobState::Done || attempts[d] != 1)
            ++wrong;
    }
    if (wrong != 0) {
        out.failed += wrong;
        out.problems.push_back("exactly-once: " + std::to_string(wrong) +
                               " job(s) not settled with one attempt");
    }
}

/** Everything one pass measured. */
struct Pass
{
    std::vector<double> setupS;
    std::vector<double> daemonStartMs;
    std::vector<ClosedResult> batches;
    std::array<OpenResult, 2> loops;
    std::vector<double> spoolSubmitUs;
    std::vector<double> execMs; //!< local execution of the spot checks
    std::uint64_t digest = 0;  //!< over the spot-check records
    std::uint64_t submitted = 0;
};

/** The jobs whose stored records are checked against local runs. */
std::vector<RunJob>
spotCheckJobs(std::uint64_t seed)
{
    std::vector<RunJob> checks;
    for (std::size_t i = 0; i < kBatchChecks; ++i)
        checks.push_back(floodJob(seed, 0, i * kBatchJobs / kBatchChecks));
    for (std::uint64_t l = 0; l < 2; ++l)
        for (std::size_t i = 0; i < kLoopChecks; ++i)
            checks.push_back(floodJob(seed, kLoopStream + l, i));
    return checks;
}

/**
 * Execute the spot checks locally and serially (their times are the
 * latency floor); traced, through tracedRun() into @p totals.
 */
std::vector<RunRecord>
runLocally(const std::vector<RunJob> &checks, Tracer *tracer,
           LayerTotals *totals, std::vector<double> &exec_ms)
{
    const std::size_t n = checks.size();
    std::vector<RunRecord> local(n);
    exec_ms.assign(n, 0.0);
    if (!totals) {
        parallelFor(n, [&](std::size_t j) {
            const Clock::time_point t0 = Clock::now();
            local[j] = runAndMeasureCached(checks[j], nullptr).record;
            exec_ms[j] = msBetween(t0, Clock::now());
        }, 1);
        return local;
    }
    LayerTotals pass;
    const Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope root(tracer, "sweep", 0, 0);
        parallelFor(n, [&](std::size_t j) {
            Tracer::Scope body(tracer, "parallelFor.job", root.id(), j);
            LayerTotals one;
            one.queueWaitMaxMs = msBetween(t0, Clock::now());
            local[j] = tracedRun(checks[j], *tracer, body.id(), j, one);
            exec_ms[j] = body.elapsedMs();
            one.busyMs = exec_ms[j];
            pass.add(one);
        }, 1);
    }
    pass.passWallMs = msBetween(t0, Clock::now());
    pass.cacheMisses = n;
    pass.passes = 1;
    totals->add(pass);
    return local;
}

/**
 * Stop @p s's daemon, audit exactly-once settlement of @p digests in
 * its spool, and compare the stored records of @p checks[first, last)
 * with @p local.  The directory stays until the pass ends: deleting
 * thousands of files mid-run slowed the following batches.
 */
void
closeSession(std::unique_ptr<Session> s,
             const std::vector<std::uint64_t> &digests,
             const std::vector<RunJob> &checks,
             const std::vector<RunRecord> &local, std::size_t first,
             std::size_t last, Outcome &out)
{
    const std::string dir = s->dir;
    s.reset();
    auditExactlyOnce(dir, digests, out);
    RunCache stored(dir + "/cache");
    std::size_t mismatches = 0;
    for (std::size_t j = first; j < last; ++j) {
        RunRecord rec;
        if (!stored.probe(runDigest(checks[j]), rec) ||
            !sameModelStats(rec, local[j]))
            ++mismatches;
    }
    if (mismatches != 0) {
        out.failed += mismatches;
        out.problems.push_back(std::to_string(mismatches) +
                               " spot-checked record(s) differ from "
                               "local execution");
    }
}

/** Open a session, timing it as set-up. @return null on failure. */
std::unique_ptr<Session>
timedSession(const std::string &dir, Tracer *tracer, Pass &p,
             Outcome &out)
{
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Session> s = openSession(dir, tracer);
    p.setupS.push_back(secondsBetween(t0, Clock::now()));
    if (!s->ok) {
        out.failed += 1;
        out.problems.push_back("daemon or client failed to start");
        return nullptr;
    }
    p.daemonStartMs.push_back(s->daemon->startMs());
    return s;
}

/**
 * One pass of the workload.  Every closed batch gets a fresh daemon in
 * a fresh directory, and the two open loops share one more, so each
 * measured unit starts from the same spool, journal and cache state.
 */
Pass
runPass(const Options &opt, const std::string &base, double seconds,
        Tracer *tracer, LayerTotals *totals, Outcome &out)
{
    Pass p;
    const std::uint64_t seed = opt.seed;
    const std::vector<RunJob> checks = spotCheckJobs(seed);
    const std::vector<RunRecord> local =
        runLocally(checks, tracer, totals, p.execMs);
    Fnv1a h;
    for (const RunRecord &r : local)
        digestRecord(h, r);
    p.digest = h.value();

    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (!timedSession(base + "/setup", tracer, p, out))
            return p;
    }

    const Clock::time_point closed_until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(0.6 * seconds));
    for (std::uint64_t b = 0; b < 2 || Clock::now() < closed_until; ++b) {
        auto s = timedSession(base + "/batch" + std::to_string(b), tracer,
                              p, out);
        if (!s)
            return p;
        std::vector<std::uint64_t> digests;
        p.batches.push_back(
            closedBatch(*s, seed, b, tracer, digests, out.failed));
        out.attempted += kBatchJobs;
        p.submitted += digests.size();
        closeSession(std::move(s), digests, checks, local, 0,
                     b == 0 ? kBatchChecks : 0, out);
    }

    auto s = timedSession(base + "/loops", tracer, p, out);
    if (!s)
        return p;
    std::vector<std::uint64_t> digests;
    const double loop_share[2] = {0.25, 0.15};
    for (int l = 0; l < 2; ++l) {
        std::size_t n = std::max<std::size_t>(
            kLoopChecks,
            static_cast<std::size_t>(kRates[l] * loop_share[l] * seconds));
        p.loops[l] = openLoop(*s, seed, kLoopStream + l, kRates[l], n,
                              tracer, digests, out.failed);
        out.attempted += n;
    }
    if (tracer) {
        // The spool tier: rename-based submits the daemon picks up on
        // its next directory scan.
        std::vector<std::uint64_t> spooled;
        for (std::size_t i = 0; i < kFrameJobs; ++i) {
            RunJob job = floodJob(seed, kSpoolStream, i);
            Tracer::Scope sc(tracer, "ServiceClient::submit", 0, i);
            spooled.push_back(s->client->submit(job));
            p.spoolSubmitUs.push_back(sc.elapsedMs() * 1e3);
        }
        out.attempted += spooled.size();
        for (std::uint64_t d : spooled) {
            if (s->client->wait(d, kWaitMs) != JobState::Done)
                ++out.failed;
        }
        digests.insert(digests.end(), spooled.begin(), spooled.end());
    }
    p.submitted += digests.size();
    closeSession(std::move(s), digests, checks, local, kBatchChecks,
                 checks.size(), out);

    if (totals) {
        std::string err;
        if (!probeCodecAndStore(checks, local, base + "/store-probe",
                                *tracer, *totals, err)) {
            out.failed += 1;
            out.problems.push_back(err);
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
    return p;
}

std::vector<double>
concat(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

} // namespace

Outcome
runFlood(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    Pass p = runPass(opt, opt.workdir + "/flood", untraced_s, nullptr,
                     nullptr, out);
    out.digest = p.digest;
    if (p.batches.empty())
        return out;

    std::vector<double> wall, cpu, jps, mips, settle, fetch;
    for (const ClosedResult &b : p.batches) {
        wall.push_back(b.wallS);
        cpu.push_back(b.cpuS);
        jps.push_back(static_cast<double>(kBatchJobs) / b.wallS);
        mips.push_back(b.minstr / b.wallS);
        settle = concat(settle, b.settleMs);
        fetch = concat(fetch, b.fetchUs);
    }
    out.endToEnd = {
        {"setup_s", median(p.setupS), "s"},
        {"wall_s", median(wall), "s"},
        {"host_cpu_s", median(cpu), "s"},
        {"sim_minstr_per_s", median(mips), "Minstr/s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };

    std::vector<Metric> &r = out.report;
    r.push_back({"jobs_per_s", median(jps), "1/s"});
    r.push_back({"service.daemon_start_ms", median(p.daemonStartMs), "ms"});
    r.push_back({"service.closed_batches", static_cast<double>(
                     p.batches.size()), "count"});
    r.push_back({"service.settle_ms_p50", quantile(settle, 0.5), "ms"});
    r.push_back({"service.fetch_us", median(fetch), "us"});
    r.push_back({"service.exec_ms", median(p.execMs), "ms"});
    std::vector<double> acks;
    for (int l = 0; l < 2; ++l) {
        const OpenResult &o = p.loops[l];
        const std::string tag =
            std::to_string(static_cast<int>(kRates[l]));
        acks = concat(acks, o.ackUs);
        r.push_back({"service.lat" + tag + "_samples",
                     static_cast<double>(o.latMs.size()), "count"});
        if (o.missedRate) {
            out.problems.push_back("open loop at " + tag +
                                   " jobs/s missed its rate (backlog "
                                   "grew every quarter)");
            out.failed += o.jobs;
        } else {
            r.push_back({"lat" + tag + "_ms_p50", quantile(o.latMs, 0.5),
                         "ms"});
            r.push_back({"lat" + tag + "_ms_p99", quantile(o.latMs, 0.99),
                         "ms"});
        }
        r.push_back({"service.gen_late_ms_p99." + tag,
                     quantile(o.lateMs, 0.99), "ms"});
        for (int q = 0; q < 4; ++q)
            r.push_back({"service.backlog" + tag + ".q" +
                             std::to_string(q + 1),
                         static_cast<double>(o.backlog[q]), "count"});
    }
    r.push_back({"service.submit_ack_us_p50", quantile(acks, 0.5), "us"});
    r.push_back({"service.submit_ack_us_p99", quantile(acks, 0.99), "us"});
    r.push_back({"service.jobs_submitted", static_cast<double>(
                     p.submitted), "count"});

    if (!opt.trace)
        return out;

    LayerTotals totals;
    Pass t = runPass(opt, opt.workdir + "/flood-traced", opt.seconds / 2,
                     &tracer, &totals, out);
    if (t.digest != p.digest) {
        out.failed += 1;
        out.problems.push_back("model statistics differ with tracing on");
    }
    replayWorkloads(totals);
    std::vector<double> traced_wall;
    for (const ClosedResult &b : t.batches)
        traced_wall.push_back(b.wallS);
    const double overhead = traced_wall.empty()
        ? 0.0 : median(traced_wall) / median(wall) - 1;
    out.perLayer = perLayerMetrics(totals, overhead);
    r.push_back({"service.spool_submit_us", median(t.spoolSubmitUs),
                 "us"});
    // Share of the daemon workers' closed-batch wall time spent inside
    // CmpSystem::run, at the traced (profiled, so upper-bound) host
    // time per job.
    const double run_ms_per_job =
        totals.jobs == 0 ? 0.0 : totals.runHostNs / 1e6 / totals.jobs;
    r.push_back({"service.sim_frac",
                 static_cast<double>(kBatchJobs) * run_ms_per_job /
                     (kDaemonWorkers * median(wall) * 1e3),
                 "frac"});
    return out;
}

} // namespace perfbench
