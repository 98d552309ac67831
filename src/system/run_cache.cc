#include "system/run_cache.hh"

#include <bit>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <signal.h>
#include <unistd.h>

#include "sim/format.hh"
#include "sim/logging.hh"
#include "system/options.hh"
#include "system/record_io.hh"

namespace vpc
{

namespace
{

void
digestPrefetch(Fnv1a &h, const PrefetchConfig &p)
{
    h.u64(p.enable ? 1 : 0);
    h.u64(p.streams);
    h.u64(p.degree);
    h.u64(p.confidence);
}

/**
 * Hash every field of the normalized config that can influence either
 * the model statistics or the kernel counters.  `profile` is the one
 * deliberate omission (observe-only; see run_cache.hh).
 */
void
digestConfig(Fnv1a &h, const SystemConfig &cfg)
{
    h.u64(cfg.numProcessors);

    const CoreConfig &c = cfg.core;
    h.u64(c.dispatchWidth);
    h.u64(c.robEntries);
    h.u64(c.retireWidth);
    h.u64(c.loadQueueEntries);
    h.u64(c.storeQueueEntries);
    h.u64(c.lsuPorts);
    h.u64(c.storeCommitWidth);
    h.dbl(c.lsuRejectProb);

    const L1Config &l1 = cfg.l1;
    h.u64(l1.sizeBytes);
    h.u64(l1.ways);
    h.u64(l1.lineBytes);
    h.u64(l1.hitLatency);
    h.u64(l1.mshrs);
    digestPrefetch(h, l1.prefetch);

    const L2Config &l2 = cfg.l2;
    h.u64(l2.banks);
    h.u64(l2.sizeBytes);
    h.u64(l2.ways);
    h.u64(l2.lineBytes);
    h.u64(l2.tagLatency);
    h.u64(l2.tagWriteAccesses);
    h.u64(l2.dataLatency);
    h.u64(l2.dataWriteAccesses);
    h.u64(l2.busBeatCycles);
    h.u64(l2.busBytes);
    h.u64(l2.busOccupancyOverride);
    h.u64(l2.interconnectLatency);
    h.u64(l2.stateMachinesPerThread);
    h.u64(l2.sgbEntriesPerThread);
    h.u64(l2.sgbHighWater);
    h.u64(l2.readClaimEntries);

    const MemConfig &m = cfg.mem;
    h.u64(m.ranksPerChannel);
    h.u64(m.banksPerRank);
    h.u64(m.transactionEntries);
    h.u64(m.writeEntries);
    h.u64(m.tRcd);
    h.u64(m.tCl);
    h.u64(m.tRp);
    h.u64(m.tBurst);
    h.u64(m.tWr);
    h.u64(m.ctrlLatency);
    h.u64(m.sharedChannel ? 1 : 0);
    h.u64(static_cast<std::uint64_t>(m.schedulerPolicy));

    h.u64(static_cast<std::uint64_t>(cfg.arbiterPolicy));
    h.u64(static_cast<std::uint64_t>(cfg.capacityPolicy));

    const VerifyConfig &v = cfg.verify;
    h.u64(v.paranoid);
    h.u64(v.auditInterval);
    h.u64(v.watchdogCycles);
    h.dbl(v.faultRate);
    h.u64(v.faultSeed);

    h.u64(cfg.kernelSkip ? 1 : 0);
    h.u64(cfg.kernelFuse ? 1 : 0);
    h.u64(cfg.allowUnallocatedShares ? 1 : 0);
    h.u64(cfg.vpcIntraThreadRow ? 1 : 0);
    h.u64(cfg.vpcIdleReset ? 1 : 0);
    h.u64(cfg.vpcWorkConserving ? 1 : 0);

    h.u64(cfg.shares.size());
    for (const QosShare &s : cfg.shares) {
        h.dbl(s.phi);
        h.dbl(s.beta);
    }
    h.u64(cfg.l1PrefetchPerThread.size());
    for (const PrefetchConfig &p : cfg.l1PrefetchPerThread)
        digestPrefetch(h, p);
}

/** @return whether a process with pid @p pid is still alive. */
bool
pidAlive(std::uint64_t pid)
{
    if (pid == 0 || pid > static_cast<std::uint64_t>(INT32_MAX))
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    // EPERM means the pid exists but belongs to someone else.
    return errno == EPERM;
}

} // namespace

std::uint64_t
runDigest(const RunJob &job)
{
    // Normalize first so "empty shares" and "explicit equal shares"
    // digest identically (validate() fills the defaults).
    SystemConfig cfg = job.config;
    cfg.validate();

    Fnv1a h;
    h.u64(kRunCacheSchema);
    digestConfig(h, cfg);
    h.u64(job.workloads.size());
    for (const WorkloadKey &w : job.workloads) {
        h.str(w.spec);
        h.u64(w.base);
        h.u64(w.seed);
    }
    h.u64(job.warmup);
    h.u64(job.measure);
    return h.value();
}

RunCache::RunCache(std::string disk_dir) : dir_(std::move(disk_dir))
{
    if (!dir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        if (ec) {
            vpc_warn("run-cache: cannot create '{}': {}; disk store "
                     "disabled", dir_, ec.message());
            dir_.clear();
            storeErrors_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // Janitor: a writer that crashed between temp create and
        // rename leaks its temp forever; reclaim such orphans on
        // every store open.
        gcStaleTemps(dir_);
    }
}

std::size_t
RunCache::gcStaleTemps(const std::string &dir,
                       std::chrono::seconds max_age)
{
    namespace fs = std::filesystem;
    std::size_t removed = 0;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return 0;
    const auto now = fs::file_time_type::clock::now();
    auto is_shard_dir = [](const std::string &n) {
        return n.size() == 2 &&
               std::isxdigit(static_cast<unsigned char>(n[0])) &&
               std::isxdigit(static_cast<unsigned char>(n[1]));
    };
    for (const fs::directory_entry &e : it) {
        const std::string name = e.path().filename().string();
        // Descend into the 256-way shard fanout (one level only).
        if (e.is_directory(ec) && is_shard_dir(name)) {
            removed += gcStaleTemps(e.path().string(), max_age);
            continue;
        }
        // Temp names are "<record>.tmp.<pid>.<seq>"; anything else in
        // the store (records, foreign files) is not ours to clean.
        std::size_t tag = name.find(".tmp.");
        if (tag == std::string::npos || !e.is_regular_file(ec))
            continue;
        std::uint64_t pid = 0;
        bool have_pid = false;
        {
            const char *p = name.c_str() + tag + 5;
            char *end = nullptr;
            pid = std::strtoull(p, &end, 10);
            have_pid = end != p && end != nullptr && *end == '.';
        }
        bool stale;
        if (have_pid) {
            stale = !pidAlive(pid);
        } else {
            // Legacy/foreign temp: age is the only signal.
            auto mtime = fs::last_write_time(e.path(), ec);
            stale = !ec && now - mtime > max_age;
        }
        if (stale && fs::remove(e.path(), ec) && !ec)
            ++removed;
    }
    if (removed > 0)
        vpc_inform("run-cache: reclaimed {} stale temp file(s) in '{}'",
                   removed, dir);
    return removed;
}

std::string
RunCache::recordPath(std::uint64_t key) const
{
    if (dir_.empty())
        return "";
    // 256-way fanout by the first digest byte: "ab/ab12...ef.json".
    char name[40];
    std::snprintf(name, sizeof(name), "%02llx/%016llx.json",
                  static_cast<unsigned long long>(key >> 56),
                  static_cast<unsigned long long>(key));
    return dir_ + "/" + name;
}

std::string
RunCache::legacyRecordPath(std::uint64_t key) const
{
    if (dir_.empty())
        return "";
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(key));
    return dir_ + "/" + name;
}

bool
RunCache::loadFromDisk(std::uint64_t key, RunRecord &out) const
{
    std::string path = recordPath(key);
    if (path.empty())
        return false;
    std::ifstream in(path);
    if (!in) {
        // Pre-shard stores published records flat in the store root;
        // keep serving them.
        in.open(legacyRecordPath(key));
    }
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    RecordParser p(ss.str());
    if (!p.parse())
        return false;

    std::uint64_t schema = 0, stored_key = 0, end_cycle = 0,
                  cycles = 0, threads = 0;
    std::string key_hex;
    if (!p.getInt("schema", schema) || schema != kRunCacheSchema)
        return false;
    if (!p.getString("key", key_hex) || key_hex.empty())
        return false;
    char *end = nullptr;
    stored_key = std::strtoull(key_hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0' || stored_key != key)
        return false;
    if (!p.getInt("end_cycle", end_cycle) ||
        !p.getInt("cycles", cycles) || !p.getInt("threads", threads)) {
        return false;
    }

    std::vector<std::uint64_t> kernel, ipc, instrs, l2r, l2w, l2m,
        sgbs, sgbg, utils;
    if (!p.getArray("kernel", kernel) || kernel.size() != 5 ||
        !p.getArray("ipc_bits", ipc) || !p.getArray("instrs", instrs) ||
        !p.getArray("l2_reads", l2r) || !p.getArray("l2_writes", l2w) ||
        !p.getArray("l2_misses", l2m) ||
        !p.getArray("sgb_stores", sgbs) ||
        !p.getArray("sgb_gathered", sgbg) ||
        !p.getArray("util_bits", utils) || utils.size() != 3) {
        return false;
    }
    if (ipc.size() != threads || instrs.size() != threads ||
        l2r.size() != threads || l2w.size() != threads ||
        l2m.size() != threads || sgbs.size() != threads ||
        sgbg.size() != threads) {
        return false;
    }

    out = RunRecord{};
    out.endCycle = end_cycle;
    out.stats.cycles = cycles;
    out.stats.ipc = recordDoubles(ipc);
    out.stats.instrs = instrs;
    out.stats.l2Reads = l2r;
    out.stats.l2Writes = l2w;
    out.stats.l2Misses = l2m;
    out.stats.sgbStores = sgbs;
    out.stats.sgbGathered = sgbg;
    out.stats.tagUtil = std::bit_cast<double>(utils[0]);
    out.stats.dataUtil = std::bit_cast<double>(utils[1]);
    out.stats.busUtil = std::bit_cast<double>(utils[2]);
    out.kernel.cyclesExecuted.inc(kernel[0]);
    out.kernel.cyclesSkipped.inc(kernel[1]);
    out.kernel.ticksExecuted.inc(kernel[2]);
    out.kernel.eventsFired.inc(kernel[3]);
    out.kernel.wheelCascades.inc(kernel[4]);
    return true;
}

void
RunCache::storeToDisk(std::uint64_t key, const RunRecord &r) const
{
    std::string path = recordPath(key);
    if (path.empty())
        return;
    // Write-to-temp + rename so concurrent processes sharing the
    // store never observe a torn record.  The temp name embeds our
    // pid (for the janitor) and a per-call discriminator so two
    // threads of one process publishing the same key never collide.
    static std::atomic<std::uint64_t> seq{0};
    std::string tmp = format("{}.tmp.{}.{}", path,
                             static_cast<unsigned long long>(::getpid()),
                             seq.fetch_add(1,
                                           std::memory_order_relaxed));
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        // First write into this shard: create the fanout directory
        // lazily and retry once.
        std::error_code dir_ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), dir_ec);
        f = std::fopen(tmp.c_str(), "w");
    }
    if (!f) {
        vpc_warn("run-cache: cannot write '{}'", tmp);
        storeErrors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const IntervalStats &s = r.stats;
    std::fprintf(f, "{\n  \"schema\": %llu,\n  \"key\": \"%016llx\",\n",
                 static_cast<unsigned long long>(kRunCacheSchema),
                 static_cast<unsigned long long>(key));
    std::fprintf(f, "  \"end_cycle\": %llu,\n  \"cycles\": %llu,\n"
                 "  \"threads\": %llu,\n",
                 static_cast<unsigned long long>(r.endCycle),
                 static_cast<unsigned long long>(s.cycles),
                 static_cast<unsigned long long>(s.ipc.size()));
    writeRecordVec(f, "kernel",
             {r.kernel.cyclesExecuted.value(),
              r.kernel.cyclesSkipped.value(),
              r.kernel.ticksExecuted.value(),
              r.kernel.eventsFired.value(),
              r.kernel.wheelCascades.value()});
    writeRecordVec(f, "ipc_bits", recordBits(s.ipc));
    writeRecordVec(f, "instrs", s.instrs);
    writeRecordVec(f, "l2_reads", s.l2Reads);
    writeRecordVec(f, "l2_writes", s.l2Writes);
    writeRecordVec(f, "l2_misses", s.l2Misses);
    writeRecordVec(f, "sgb_stores", s.sgbStores);
    writeRecordVec(f, "sgb_gathered", s.sgbGathered);
    writeRecordVec(f, "util_bits",
             recordBits({s.tagUtil, s.dataUtil, s.busUtil}), true);
    std::fprintf(f, "}\n");
    // A full disk shows up here, not in the fprintfs: check the
    // stream error state before trusting the temp enough to publish.
    bool ok = std::ferror(f) == 0;
    ok = std::fclose(f) == 0 && ok;
    std::error_code ec;
    if (!ok) {
        vpc_warn("run-cache: short write on '{}'", tmp);
        storeErrors_.fetch_add(1, std::memory_order_relaxed);
        std::filesystem::remove(tmp, ec);
        return;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        vpc_warn("run-cache: cannot publish '{}': {}", path,
                 ec.message());
        storeErrors_.fetch_add(1, std::memory_order_relaxed);
        std::filesystem::remove(tmp, ec);
    }
}

bool
RunCache::probe(std::uint64_t key, RunRecord &out)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end() && it->second.ready) {
            out = it->second.record;
            ++hits_;
            return true;
        }
    }
    if (loadFromDisk(key, out)) {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry &e = map_[key];
        if (!e.ready) {
            e.ready = true;
            e.record = out;
        }
        ++hits_;
        ++diskHits_;
        return true;
    }
    return false;
}

RunRecord
RunCache::lookupOrCompute(std::uint64_t key,
                          const std::function<RunRecord()> &compute,
                          bool *hit_out)
{
    bool must_compute = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            Entry &e = map_[key];
            if (e.ready) {
                ++hits_;
                if (hit_out)
                    *hit_out = true;
                return e.record;
            }
            if (!e.computing) {
                e.computing = true;
                must_compute = true;
                break;
            }
            // Another job is computing this key; share its record.
            cv_.wait(lock);
        }
    }

    RunRecord rec;
    if (!must_compute)
        vpc_panic("run-cache in-flight bookkeeping broke");
    bool from_disk = loadFromDisk(key, rec);
    if (!from_disk) {
        try {
            rec = compute();
        } catch (...) {
            // A failed compute (cancelled job, deadline, workload
            // error) must not strand the waiters: drop the in-flight
            // claim so the next caller retries, then let the failure
            // propagate.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                map_.erase(key);
            }
            cv_.notify_all();
            throw;
        }
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry &e = map_[key];
        e.record = rec;
        e.ready = true;
        e.computing = false;
        if (from_disk) {
            ++hits_;
            ++diskHits_;
        } else {
            ++misses_;
        }
    }
    cv_.notify_all();
    if (!from_disk)
        storeToDisk(key, rec);
    if (hit_out)
        *hit_out = from_disk;
    return rec;
}

std::uint64_t
RunCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
RunCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
RunCache::diskHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return diskHits_;
}

std::uint64_t
RunCache::storeErrors() const
{
    return storeErrors_.load(std::memory_order_relaxed);
}

RunResult
runAndMeasureCached(const RunJob &job, RunCache *cache,
                    const RunSupervision *sup)
{
    RunResult out;
    auto compute = [&job, &out, sup]() -> RunRecord {
        std::vector<std::unique_ptr<Workload>> wl;
        wl.reserve(job.workloads.size());
        for (std::size_t t = 0; t < job.workloads.size(); ++t) {
            const WorkloadKey &k = job.workloads[t];
            std::string err;
            auto w = makeWorkloadFromSpec(k.spec, k.base, k.seed, err);
            // Catchable (not vpc_fatal): a daemon must be able to
            // quarantine a poison job instead of dying with it.
            if (!w)
                throw std::runtime_error(
                    format("run-cache job: {}", err));
            wl.push_back(std::move(w));
        }
        CmpSystem sys(job.config, std::move(wl));
        if (sup != nullptr) {
            sys.setCancelToken(sup->cancel);
            if (sup->deadlineMs > 0) {
                sys.armWallDeadline(
                    std::chrono::milliseconds(sup->deadlineMs));
            }
        }
        RunRecord rec;
        rec.stats = sys.runAndMeasure(job.warmup, job.measure);
        rec.endCycle = sys.now();
        rec.kernel = sys.kernelStats();
        if (sys.profiling()) {
            out.hasProfile = true;
            out.profile = sys.mergedProfile();
        }
        return rec;
    };

    if (cache) {
        out.record = cache->lookupOrCompute(runDigest(job), compute,
                                            &out.cacheHit);
    } else {
        out.record = compute();
    }
    return out;
}

} // namespace vpc
