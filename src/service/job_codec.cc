#include "service/job_codec.hh"

#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "sim/logging.hh"
#include "system/record_io.hh"

namespace vpc
{

namespace
{

/**
 * The scalar config fields, enumerated once for both directions.
 * Walker is called with every unsigned field (doubles ride in a
 * separate bits array so the array stays uniformly integral).  The
 * order must be stable — it is checked end-to-end by the embedded
 * digest, not by this file alone.
 */
template <typename U, typename C>
void
walkConfigScalars(U &&u, C &cfg)
{
    u(cfg.numProcessors);

    auto &c = cfg.core;
    u(c.dispatchWidth);
    u(c.robEntries);
    u(c.retireWidth);
    u(c.loadQueueEntries);
    u(c.storeQueueEntries);
    u(c.lsuPorts);
    u(c.storeCommitWidth);

    auto &l1 = cfg.l1;
    u(l1.sizeBytes);
    u(l1.ways);
    u(l1.lineBytes);
    u(l1.hitLatency);
    u(l1.mshrs);
    u(l1.prefetch.enable);
    u(l1.prefetch.streams);
    u(l1.prefetch.degree);
    u(l1.prefetch.confidence);

    auto &l2 = cfg.l2;
    u(l2.banks);
    u(l2.sizeBytes);
    u(l2.ways);
    u(l2.lineBytes);
    u(l2.tagLatency);
    u(l2.tagWriteAccesses);
    u(l2.dataLatency);
    u(l2.dataWriteAccesses);
    u(l2.busBeatCycles);
    u(l2.busBytes);
    u(l2.busOccupancyOverride);
    u(l2.interconnectLatency);
    u(l2.stateMachinesPerThread);
    u(l2.sgbEntriesPerThread);
    u(l2.sgbHighWater);
    u(l2.readClaimEntries);

    auto &m = cfg.mem;
    u(m.ranksPerChannel);
    u(m.banksPerRank);
    u(m.transactionEntries);
    u(m.writeEntries);
    u(m.tRcd);
    u(m.tCl);
    u(m.tRp);
    u(m.tBurst);
    u(m.tWr);
    u(m.ctrlLatency);
    u(m.sharedChannel);
    u(m.schedulerPolicy);

    u(cfg.arbiterPolicy);
    u(cfg.capacityPolicy);

    auto &v = cfg.verify;
    u(v.paranoid);
    u(v.auditInterval);
    u(v.watchdogCycles);
    u(v.faultSeed);

    u(cfg.kernelSkip);
    u(cfg.kernelFuse);
    u(cfg.allowUnallocatedShares);
    u(cfg.vpcIntraThreadRow);
    u(cfg.vpcIdleReset);
    u(cfg.vpcWorkConserving);
}

} // namespace

std::string
encodeJob(const RunJob &job)
{
    RunJob j = job;
    j.config.validate();
    std::uint64_t digest = runDigest(j);

    std::vector<std::uint64_t> cfg;
    walkConfigScalars(
        [&cfg](auto v) { cfg.push_back(static_cast<std::uint64_t>(v)); },
        j.config);

    std::vector<double> dbls{j.config.core.lsuRejectProb,
                             j.config.verify.faultRate};

    std::vector<double> shares;
    for (const auto &s : j.config.shares) {
        shares.push_back(s.phi);
        shares.push_back(s.beta);
    }

    std::vector<std::uint64_t> l1pf;
    for (const auto &p : j.config.l1PrefetchPerThread) {
        l1pf.push_back(p.enable ? 1 : 0);
        l1pf.push_back(p.streams);
        l1pf.push_back(p.degree);
        l1pf.push_back(p.confidence);
    }

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = ::open_memstream(&buf, &len);
    if (!f)
        vpc_fatal("job codec: open_memstream failed");

    std::fprintf(f, "{\"svc_schema\": %llu, \"digest\": %llu, ",
                 static_cast<unsigned long long>(kJobCodecSchema),
                 static_cast<unsigned long long>(digest));
    writeRecordVec(f, "cfg", cfg);
    writeRecordVec(f, "cfg_dbl", recordBits(dbls));
    writeRecordVec(f, "shares", recordBits(shares));
    writeRecordVec(f, "l1pf", l1pf);
    std::fprintf(f, "\"warmup\": %llu, \"measure\": %llu, "
                 "\"threads\": %llu",
                 static_cast<unsigned long long>(j.warmup),
                 static_cast<unsigned long long>(j.measure),
                 static_cast<unsigned long long>(j.workloads.size()));
    for (std::size_t t = 0; t < j.workloads.size(); ++t) {
        const WorkloadKey &w = j.workloads[t];
        if (!recordStringSafe(w.spec))
            vpc_fatal("job codec: workload spec '{}' cannot travel as "
                      "a record string", w.spec);
        std::fprintf(f, ", \"wl%zu_spec\": \"%s\", \"wl%zu_base\": %llu"
                     ", \"wl%zu_seed\": %llu",
                     t, w.spec.c_str(),
                     t, static_cast<unsigned long long>(w.base),
                     t, static_cast<unsigned long long>(w.seed));
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::string text(buf, len);
    std::free(buf);
    return text;
}

bool
decodeJob(const std::string &text, RunJob &out)
{
    RecordParser p(text);
    if (!p.parse())
        return false;

    std::uint64_t schema = 0, digest = 0;
    if (!p.getInt("svc_schema", schema) || schema != kJobCodecSchema)
        return false;
    if (!p.getInt("digest", digest))
        return false;

    std::vector<std::uint64_t> cfg, cfg_dbl, shares, l1pf;
    if (!p.getArray("cfg", cfg) || !p.getArray("cfg_dbl", cfg_dbl) ||
        !p.getArray("shares", shares) || !p.getArray("l1pf", l1pf))
        return false;
    if (cfg_dbl.size() != 2 || shares.size() % 2 != 0 ||
        l1pf.size() % 4 != 0)
        return false;

    RunJob job;
    std::size_t i = 0;
    bool underflow = false;
    walkConfigScalars(
        [&](auto &field) {
            if (i >= cfg.size()) {
                underflow = true;
                return;
            }
            field = static_cast<std::decay_t<decltype(field)>>(cfg[i++]);
        },
        job.config);
    if (underflow || i != cfg.size())
        return false; // field-count skew: stale or foreign record

    std::vector<double> dbls = recordDoubles(cfg_dbl);
    job.config.core.lsuRejectProb = dbls[0];
    job.config.verify.faultRate = dbls[1];

    std::vector<double> sh = recordDoubles(shares);
    job.config.shares.clear();
    for (std::size_t s = 0; s + 1 < sh.size(); s += 2)
        job.config.shares.push_back({sh[s], sh[s + 1]});

    job.config.l1PrefetchPerThread.clear();
    for (std::size_t s = 0; s + 3 < l1pf.size(); s += 4) {
        PrefetchConfig pf;
        pf.enable = l1pf[s] != 0;
        pf.streams = static_cast<unsigned>(l1pf[s + 1]);
        pf.degree = static_cast<unsigned>(l1pf[s + 2]);
        pf.confidence = static_cast<unsigned>(l1pf[s + 3]);
        job.config.l1PrefetchPerThread.push_back(pf);
    }

    std::uint64_t warmup = 0, measure = 0, threads = 0;
    if (!p.getInt("warmup", warmup) || !p.getInt("measure", measure) ||
        !p.getInt("threads", threads))
        return false;
    job.warmup = warmup;
    job.measure = measure;
    if (threads == 0 || threads > 1024)
        return false;

    for (std::uint64_t t = 0; t < threads; ++t) {
        WorkloadKey w;
        std::string pre = "wl" + std::to_string(t);
        std::uint64_t base = 0, seed = 0;
        if (!p.getString(pre + "_spec", w.spec) ||
            !p.getInt(pre + "_base", base) ||
            !p.getInt(pre + "_seed", seed))
            return false;
        w.base = base;
        w.seed = seed;
        job.workloads.push_back(w);
    }

    // Reject insane configs before digesting: runDigest() normalizes
    // through validate(), which exits the process on inconsistency —
    // a corrupt job file must degrade to "decode failed", not kill
    // the daemon.
    job.config.normalize();
    if (!job.config.check().empty())
        return false;

    // End-to-end integrity: the decoded job must digest to the value
    // the encoder embedded, or the record does not describe the job
    // the client submitted (corruption, or encoder/decoder skew).
    if (runDigest(job) != digest)
        return false;

    out = std::move(job);
    return true;
}

} // namespace vpc
