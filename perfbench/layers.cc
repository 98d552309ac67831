#include "layers.hh"

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>

#include "service/job_codec.hh"
#include "system/cmp_system.hh"
#include "system/options.hh"

namespace perfbench
{

using namespace vpc;

namespace
{

/** Add the live system's counters (all public accessors) to @p t. */
void
readLayers(CmpSystem &sys, const RunRecord &rec, LayerTotals &t)
{
    const SystemConfig &cfg = sys.config();
    const unsigned n = cfg.numProcessors;

    const KernelStats &k = sys.kernelStats();
    t.jobs += 1;
    t.simCycles += sys.now();
    t.cyclesExecuted += k.cyclesExecuted.value();
    t.cyclesSkipped += k.cyclesSkipped.value();
    t.ticks += k.ticksExecuted.value();
    t.events += k.eventsFired.value();
    t.wheelCascades += k.wheelCascades.value();

    for (ThreadId th = 0; th < n; ++th) {
        t.ipcSum += rec.stats.ipc.at(th);
        t.storeStallCycles += sys.cpu(th).storeStallCycles();
        t.l1Hits += sys.l1(th).hitCount();
        t.l1Misses += sys.l1(th).missCount();
        t.l1Blocked += sys.l1(th).blockedCount();
        t.l2Reads += rec.stats.l2Reads.at(th);
        t.l2Writes += rec.stats.l2Writes.at(th);
        t.l2Misses += rec.stats.l2Misses.at(th);
        t.sgbStores += rec.stats.sgbStores.at(th);
        t.sgbGathered += rec.stats.sgbGathered.at(th);
        t.memReads += sys.mem().readCount(th);
        t.memWrites += sys.mem().writeCount(th);
        const SampleStat &lat = sys.mem().readLatency(th);
        t.memLatSum += lat.mean() * static_cast<double>(lat.count());
        t.memLatCount += lat.count();
    }
    t.threadCycles += sys.now() * n;

    t.util[0] += rec.stats.tagUtil;
    t.util[1] += rec.stats.dataUtil;
    t.util[2] += rec.stats.busUtil;
    for (unsigned b = 0; b < sys.l2().numBanks(); ++b) {
        const L2Bank &bank = sys.l2().bank(b);
        t.rcqHighWater = std::max<std::uint64_t>(
            t.rcqHighWater, bank.readClaimHighWater());
        const std::array<const SharedResource *, 3> res = {
            &bank.tagArray(), &bank.dataArray(), &bank.dataBus()};
        for (std::size_t r = 0; r < res.size(); ++r) {
            const SampleStat &qd = res[r]->arbiter().queueDelay();
            t.qdelaySum[r] += qd.mean() * static_cast<double>(qd.count());
            t.qdelayCount[r] += qd.count();
            t.qdelayMax = std::max(t.qdelayMax, qd.max());
            t.grants += res[r]->accessCount();
        }
        // Lines held against the thread's beta share of this bank.
        const double lines_per_share =
            static_cast<double>(cfg.l2.ways) *
            static_cast<double>(bank.array().numSets());
        for (ThreadId th = 0; th < n; ++th) {
            double quota = cfg.shares.at(th).beta * lines_per_share;
            if (quota > 0.0) {
                t.overQuotaMax = std::max(
                    t.overQuotaMax,
                    static_cast<double>(bank.array().occupancy(th)) /
                        quota);
            }
        }
    }

    if (sys.profiling()) {
        const Profiler prof = sys.mergedProfile();
        for (const Profiler::Entry &e : prof.entries()) {
            std::uint64_t ns = e.tickNs + e.eventNs;
            t.profNs += ns;
            if (e.name.rfind("cpu", 0) == 0) {
                t.cpuNs += ns;
                t.cpuTickNs += e.tickNs;
                t.cpuTicks += e.tickCount;
            } else if (e.name == "l2") {
                t.l2Ns += ns;
                t.l2TickNs += e.tickNs;
                t.l2Ticks += e.tickCount;
            } else if (e.name == "mem") {
                t.memNs += ns;
            }
        }
    }
}

template <typename T>
void
append(std::vector<T> &a, const std::vector<T> &b)
{
    a.insert(a.end(), b.begin(), b.end());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

} // namespace

void
LayerTotals::add(const LayerTotals &o)
{
    passes += o.passes;
    jobs += o.jobs;
    simCycles += o.simCycles;
    cyclesExecuted += o.cyclesExecuted;
    cyclesSkipped += o.cyclesSkipped;
    ticks += o.ticks;
    events += o.events;
    wheelCascades += o.wheelCascades;
    runHostNs += o.runHostNs;
    ipcSum += o.ipcSum;
    storeStallCycles += o.storeStallCycles;
    threadCycles += o.threadCycles;
    profNs += o.profNs;
    cpuNs += o.cpuNs;
    cpuTickNs += o.cpuTickNs;
    cpuTicks += o.cpuTicks;
    l2Ns += o.l2Ns;
    l2TickNs += o.l2TickNs;
    l2Ticks += o.l2Ticks;
    memNs += o.memNs;
    buildNs += o.buildNs;
    builds += o.builds;
    genNs += o.genNs;
    genOps += o.genOps;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    l1Blocked += o.l1Blocked;
    l2Reads += o.l2Reads;
    l2Writes += o.l2Writes;
    l2Misses += o.l2Misses;
    sgbStores += o.sgbStores;
    sgbGathered += o.sgbGathered;
    rcqHighWater = std::max(rcqHighWater, o.rcqHighWater);
    overQuotaMax = std::max(overQuotaMax, o.overQuotaMax);
    for (int r = 0; r < 3; ++r) {
        util[r] += o.util[r];
        qdelaySum[r] += o.qdelaySum[r];
        qdelayCount[r] += o.qdelayCount[r];
    }
    qdelayMax = std::max(qdelayMax, o.qdelayMax);
    grants += o.grants;
    memReads += o.memReads;
    memWrites += o.memWrites;
    memLatSum += o.memLatSum;
    memLatCount += o.memLatCount;
    append(constructMs, o.constructMs);
    append(runMs, o.runMs);
    queueWaitMaxMs = std::max(queueWaitMaxMs, o.queueWaitMaxMs);
    busyMs += o.busyMs;
    passWallMs += o.passWallMs;
    workers = std::max(workers, o.workers);
    cacheHits += o.cacheHits;
    cacheMisses += o.cacheMisses;
    append(storeUs, o.storeUs);
    append(diskHitUs, o.diskHitUs);
    append(encodeUs, o.encodeUs);
    append(decodeUs, o.decodeUs);
    append(replays, o.replays);
}

RunRecord
tracedRun(const RunJob &job, Tracer &tracer, std::uint64_t parent,
          std::uint64_t job_id, LayerTotals &out)
{
    LayerTotals t;
    Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<Workload>> wl;
    for (const WorkloadKey &k : job.workloads) {
        Tracer::Scope s(&tracer, "makeWorkloadFromSpec", parent, job_id);
        std::string err;
        auto w = makeWorkloadFromSpec(k.spec, k.base, k.seed, err);
        if (!w)
            throw std::runtime_error("workload: " + err);
        wl.push_back(std::move(w));
        t.buildNs += s.elapsedMs() * 1e6;
        t.builds += 1;
    }
    SystemConfig cfg = job.config;
    cfg.profile = true;
    std::unique_ptr<CmpSystem> sys;
    {
        Tracer::Scope s(&tracer, "CmpSystem::CmpSystem", parent, job_id);
        sys = std::make_unique<CmpSystem>(std::move(cfg), std::move(wl));
        t.constructMs.push_back(s.elapsedMs());
    }
    SystemSnapshot before, after;
    {
        Tracer::Scope s(&tracer, "CmpSystem::run", parent, job_id);
        sys->run(job.warmup);
        t.runHostNs += s.elapsedMs() * 1e6;
    }
    {
        Tracer::Scope s(&tracer, "CmpSystem::snapshot", parent, job_id);
        before = sys->snapshot();
    }
    {
        Tracer::Scope s(&tracer, "CmpSystem::run", parent, job_id);
        sys->run(job.measure);
        t.runHostNs += s.elapsedMs() * 1e6;
    }
    {
        Tracer::Scope s(&tracer, "CmpSystem::snapshot", parent, job_id);
        after = sys->snapshot();
    }
    RunRecord rec;
    rec.stats = CmpSystem::interval(before, after);
    rec.endCycle = sys->now();
    rec.kernel = sys->kernelStats();
    const double run_ms = msBetween(t0, Clock::now());

    readLayers(*sys, rec, t);
    for (std::size_t th = 0; th < job.workloads.size(); ++th) {
        t.replays.push_back(
            {job.workloads[th],
             sys->cpu(static_cast<ThreadId>(th)).instrsRetired()});
    }
    {
        Tracer::Scope s(&tracer, "CmpSystem::~CmpSystem", parent, job_id);
        sys.reset();
        t.runMs.push_back(run_ms + s.elapsedMs());
    }
    out.add(t);
    return rec;
}

void
replayWorkloads(LayerTotals &t)
{
    constexpr std::size_t kBlock = 128;
    std::array<MicroOp, kBlock> buf;
    for (const LayerTotals::Replay &r : t.replays) {
        std::string err;
        auto w = makeWorkloadFromSpec(r.key.spec, r.key.base, r.key.seed,
                                      err);
        if (!w)
            continue;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t done = 0; done < r.ops; done += kBlock) {
            std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kBlock, r.ops - done));
            w->nextBlock(std::span<MicroOp>(buf.data(), n));
        }
        t.genNs += msBetween(t0, Clock::now()) * 1e6;
        t.genOps += r.ops;
    }
}

bool
probeCodecAndStore(const std::vector<RunJob> &jobs,
                   const std::vector<RunRecord> &records,
                   const std::string &dir, Tracer &tracer,
                   LayerTotals &t, std::string &err)
{
    // Codec: a few rounds over the workload's own jobs, per-call times.
    constexpr int kRounds = 8;
    for (int round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            std::string text;
            {
                Tracer::Scope s(&tracer, "encodeJob", 0, j);
                text = encodeJob(jobs[j]);
                t.encodeUs.push_back(s.elapsedMs() * 1e3);
            }
            RunJob back;
            bool ok;
            {
                Tracer::Scope s(&tracer, "decodeJob", 0, j);
                ok = decodeJob(text, back);
                t.decodeUs.push_back(s.elapsedMs() * 1e3);
            }
            if (!ok || runDigest(back) != runDigest(jobs[j])) {
                err = "job codec round trip changed a job";
                return false;
            }
        }
    }

    // Run cache: publish every record to a fresh disk store, then
    // serve each one back from disk through a second cache instance.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::vector<std::uint64_t> keys;
    {
        RunCache store(dir);
        for (std::size_t j = 0; j < records.size(); ++j) {
            std::uint64_t key = runDigest(jobs[j]);
            keys.push_back(key);
            Tracer::Scope s(&tracer, "RunCache::lookupOrCompute", 0, j);
            store.lookupOrCompute(key, [&] { return records[j]; });
            t.storeUs.push_back(s.elapsedMs() * 1e3);
        }
    }
    RunCache warm(dir);
    for (std::size_t j = 0; j < keys.size(); ++j) {
        RunRecord back;
        bool hit;
        {
            Tracer::Scope s(&tracer, "RunCache::probe", 0, j);
            hit = warm.probe(keys[j], back);
            t.diskHitUs.push_back(s.elapsedMs() * 1e3);
        }
        if (!hit || !sameModelStats(back, records[j])) {
            err = "run-cache disk round trip changed a record";
            return false;
        }
    }
    std::filesystem::remove_all(dir, ec);
    return true;
}

std::vector<Metric>
perLayerMetrics(const LayerTotals &t, double overhead_frac)
{
    const double jobs = static_cast<double>(t.jobs);
    const double executed = static_cast<double>(t.cyclesExecuted);
    const double prof = static_cast<double>(t.profNs);
    auto qmean = [&](int r) {
        return ratio(t.qdelaySum[r], static_cast<double>(t.qdelayCount[r]));
    };
    auto perPass = [&](std::uint64_t n) {
        return ratio(static_cast<double>(n),
                     static_cast<double>(std::max<std::uint64_t>(
                         t.passes, 1)));
    };
    std::vector<Metric> m = {
        {"sim.events_per_cycle", ratio(t.events, executed), "events/cycle"},
        {"sim.ticks_per_cycle", ratio(t.ticks, executed), "ticks/cycle"},
        {"sim.skip_frac",
         ratio(t.cyclesSkipped, executed + t.cyclesSkipped), "frac"},
        {"sim.wheel_cascades", perPass(t.wheelCascades), "count"},
        {"sim.host_ns_per_cycle", ratio(t.runHostNs, t.simCycles), "ns"},
        {"core.ipc_sum", ratio(t.ipcSum, jobs), "instr/cycle"},
        {"core.store_stall_frac",
         ratio(t.storeStallCycles, t.threadCycles), "frac"},
        {"core.tick_ns", ratio(t.cpuTickNs, t.cpuTicks), "ns"},
        {"core.host_share", ratio(t.cpuNs, prof), "frac"},
        {"workload.gen_ns_per_op", ratio(t.genNs, t.genOps), "ns"},
        {"workload.build_us", ratio(t.buildNs / 1e3, t.builds), "us"},
        {"cache.l1_hit_rate", ratio(t.l1Hits, t.l1Hits + t.l1Misses),
         "frac"},
        {"cache.l1_blocked", perPass(t.l1Blocked), "count"},
        {"cache.l2_miss_rate",
         ratio(t.l2Misses, t.l2Reads + t.l2Writes), "frac"},
        {"cache.l2_tick_ns", ratio(t.l2TickNs, t.l2Ticks), "ns"},
        {"cache.l2_host_share", ratio(t.l2Ns, prof), "frac"},
        {"cache.sgb_gather_rate", ratio(t.sgbGathered, t.sgbStores),
         "frac"},
        {"cache.rcq_high_water", static_cast<double>(t.rcqHighWater),
         "count"},
        {"cache.occupancy_over_quota_max", t.overQuotaMax, "ratio"},
        {"arbiter.tag_util", ratio(t.util[0], jobs), "frac"},
        {"arbiter.data_util", ratio(t.util[1], jobs), "frac"},
        {"arbiter.bus_util", ratio(t.util[2], jobs), "frac"},
        {"arbiter.tag_qdelay_mean", qmean(0), "cycles"},
        {"arbiter.data_qdelay_mean", qmean(1), "cycles"},
        {"arbiter.bus_qdelay_mean", qmean(2), "cycles"},
        {"arbiter.qdelay_max", t.qdelayMax, "cycles"},
        {"arbiter.grants", perPass(t.grants), "count"},
        {"mem.reads", perPass(t.memReads), "count"},
        {"mem.writes", perPass(t.memWrites), "count"},
        {"mem.read_lat_mean",
         ratio(t.memLatSum, static_cast<double>(t.memLatCount)), "cycles"},
        {"mem.host_share", ratio(t.memNs, prof), "frac"},
        {"system.build_ms", mean(t.constructMs), "ms"},
        {"system.run_ms_p50", median(t.runMs), "ms"},
        {"system.run_ms_max", quantile(t.runMs, 1.0), "ms"},
        {"system.sweep_queue_wait_ms_max", t.queueWaitMaxMs, "ms"},
        {"system.sweep_busy_frac",
         ratio(t.busyMs, t.passWallMs * t.workers), "frac"},
        {"system.run_cache_hit_frac",
         ratio(t.cacheHits, t.cacheHits + t.cacheMisses), "frac"},
        {"system.run_cache_disk_hit_us", median(t.diskHitUs), "us"},
        {"system.run_cache_store_us", median(t.storeUs), "us"},
        {"service.encode_us", median(t.encodeUs), "us"},
        {"service.decode_us", median(t.decodeUs), "us"},
        {"trace.overhead_frac", overhead_frac, "frac"},
    };
    return m;
}

} // namespace perfbench
