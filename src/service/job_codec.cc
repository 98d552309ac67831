#include "service/job_codec.hh"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <type_traits>

#include "sim/logging.hh"
#include "system/record_io.hh"

namespace vpc
{

namespace
{

/**
 * Fills each field forEachField visits from the record arrays, in
 * walk order: doubles from @c dbls, everything else from @c ints.
 */
struct FieldReader
{
    std::span<const std::uint64_t> ints;
    std::span<const std::uint64_t> dbls;
    std::size_t nextInt = 0;
    std::size_t nextDbl = 0;
    bool underflow = false;

    template <typename T>
    void
    operator()(T &field)
    {
        constexpr bool dbl = std::is_same_v<T, double>;
        std::span<const std::uint64_t> from = dbl ? dbls : ints;
        std::size_t &next = dbl ? nextDbl : nextInt;
        if (next == from.size())
            underflow = true;
        else if constexpr (dbl)
            field = std::bit_cast<double>(from[next++]);
        else
            field = static_cast<T>(from[next++]);
    }

    /** @return whether the fields used up both arrays exactly. */
    bool
    exact() const
    {
        return !underflow && nextInt == ints.size() &&
               nextDbl == dbls.size();
    }
};

} // namespace

std::string
encodeJob(const RunJob &job)
{
    RunJob j = job;
    j.config.validate();
    std::uint64_t digest = runDigest(j);

    std::vector<std::uint64_t> cfg, cfg_dbl, l1pf;
    forEachField(j.config, [&](auto v) {
        (std::is_same_v<decltype(v), double> ? cfg_dbl : cfg)
            .push_back(scalarBits(v));
    });
    // A PrefetchConfig has integer fields only.
    for (const PrefetchConfig &p : j.config.l1PrefetchPerThread)
        forEachField(p, [&l1pf](auto v) { l1pf.push_back(scalarBits(v)); });

    std::vector<double> shares;
    for (const auto &s : j.config.shares) {
        shares.push_back(s.phi);
        shares.push_back(s.beta);
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
    writeRecordVec(f, "cfg_dbl", cfg_dbl);
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
    if (shares.size() % 2 != 0)
        return false;

    RunJob job;
    FieldReader scalars{cfg, cfg_dbl};
    forEachField(job.config, scalars);
    if (!scalars.exact())
        return false; // field-count skew: stale or foreign record

    std::vector<double> sh = recordDoubles(shares);
    for (std::size_t s = 0; s + 1 < sh.size(); s += 2)
        job.config.shares.push_back({sh[s], sh[s + 1]});

    FieldReader prefetch{l1pf, {}};
    while (prefetch.nextInt < l1pf.size() && !prefetch.underflow)
        forEachField(job.config.l1PrefetchPerThread.emplace_back(),
                     prefetch);
    if (!prefetch.exact())
        return false;

    std::uint64_t warmup = 0, measure = 0, threads = 0;
    if (!p.getInt("warmup", warmup) || !p.getInt("measure", measure) ||
        !p.getInt("threads", threads))
        return false;
    job.warmup = warmup;
    job.measure = measure;
    // CmpSystem stops the process on a workload count that differs
    // from numProcessors, and the daemon runs decoded jobs in-process.
    if (threads != job.config.numProcessors)
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
