/**
 * @file
 * Test helpers for the SystemConfig field walk (forEachField in
 * sim/config.hh): the jobs whose run digests and job records are
 * pinned, a perturbation of any one walked field, and a name for every
 * config member, found without the walk, so that a test can say which
 * field the walk misses.
 */

#ifndef VPC_TESTS_SYSTEM_CONFIG_FIELDS_HH
#define VPC_TESTS_SYSTEM_CONFIG_FIELDS_HH

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "system/experiment.hh"
#include "system/options.hh"
#include "system/run_cache.hh"

namespace vpc
{

/** Run lengths of the pinned jobs (they only enter the digest). */
constexpr RunLengths kPinnedLengths{1'000, 5'000};

/** The 4-thread VPC baseline running art, mcf, loads and stores. */
inline RunJob
vpcBaselineJob()
{
    RunJob job;
    job.config = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    for (const char *spec : {"art", "mcf", "loads", "stores"}) {
        unsigned t = static_cast<unsigned>(job.workloads.size());
        job.workloads.push_back({spec, threadBaseAddr(t), t + 1});
    }
    job.warmup = kPinnedLengths.warmup;
    job.measure = kPinnedLengths.measure;
    return job;
}

/** Art's private-equivalent machine at phi = beta = 0.25. */
inline RunJob
privateTargetJob()
{
    return makeTargetJob(makeBaselineConfig(4, ArbiterPolicy::Vpc),
                         {"art", threadBaseAddr(0), 1}, 0.25, 0.25,
                         kPinnedLengths);
}

/**
 * Two threads off the defaults where the walk and the codec have the
 * most to carry: both doubles changed, the VPC shared memory channel,
 * per-thread prefetchers and kernel skipping off.
 */
inline RunJob
nonDefaultJob()
{
    RunJob job;
    job.config = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    job.config.core.lsuRejectProb = 0.123456789;
    job.config.verify.faultRate = 0.001;
    job.config.verify.faultSeed = 7;
    job.config.mem.sharedChannel = true;
    job.config.mem.schedulerPolicy = ArbiterPolicy::Vpc;
    job.config.l1PrefetchPerThread = {PrefetchConfig{true, 4, 2, 2},
                                      PrefetchConfig{true, 8, 1, 3}};
    job.config.kernelSkip = false;
    job.workloads = {WorkloadKey{"art", threadBaseAddr(0), 1},
                     WorkloadKey{"stores", threadBaseAddr(1), 2}};
    job.warmup = kPinnedLengths.warmup;
    job.measure = kPinnedLengths.measure;
    return job;
}

/** bench_scaleup's 16-processor machine under RoW-FCFS. */
inline RunJob
scaledRowJob()
{
    RunJob job;
    job.config = makeScaledCmpConfig(16, ArbiterPolicy::RowFcfs);
    for (unsigned t = 0; t < 16; ++t) {
        job.workloads.push_back(
            {t % 2 ? "stores" : "loads", threadBaseAddr(t), t + 1});
    }
    job.warmup = kPinnedLengths.warmup;
    job.measure = kPinnedLengths.measure;
    return job;
}

/**
 * Change walked field @p index of @p job's config to another value
 * that check() accepts: flip a bool, move a policy or a double, double
 * a power of two (the geometry fields) and step any other integer by
 * one.  A changed numProcessors gets equal shares and one workload
 * per processor.
 */
inline void
perturbField(RunJob &job, std::size_t index)
{
    std::size_t i = 0;
    forEachField(job.config, [&](auto &v) {
        using T = std::remove_reference_t<decltype(v)>;
        if (i++ != index)
            return;
        if constexpr (std::is_same_v<T, bool>)
            v = !v;
        else if constexpr (std::is_same_v<T, double>)
            v = v == 0.5 ? 0.25 : 0.5;
        else if constexpr (std::is_same_v<T, ArbiterPolicy>)
            v = v == ArbiterPolicy::RowFcfs ? ArbiterPolicy::Fcfs
                                            : ArbiterPolicy::RowFcfs;
        else if constexpr (std::is_same_v<T, CapacityPolicy>)
            v = v == CapacityPolicy::Lru ? CapacityPolicy::Vpc
                                         : CapacityPolicy::Lru;
        else
            v = isPowerOf2(v) ? v * 2 : v + 1;
    });
    SystemConfig &cfg = job.config;
    if (cfg.shares.size() != cfg.numProcessors) {
        cfg.shares.clear();
        cfg.normalize();
        job.workloads.resize(cfg.numProcessors, job.workloads.back());
    }
}

/** Config members by address, each with its name ("l2.banks"). */
using FieldNames = std::map<const void *, std::string>;

/** Whether fieldNames() names @p T's members rather than @p T. */
template <typename T>
constexpr bool kNestedConfig =
    std::is_same_v<T, CoreConfig> || std::is_same_v<T, L1Config> ||
    std::is_same_v<T, PrefetchConfig> || std::is_same_v<T, L2Config> ||
    std::is_same_v<T, MemConfig> || std::is_same_v<T, VerifyConfig>;

/** Add @p members to @p out under the names in @p list ("a, b"). */
template <typename... M>
void
nameMembers(FieldNames &out, const std::string &prefix,
            std::string_view list, const M &...members)
{
    auto next = [&list] {
        std::size_t comma = list.find(',');
        std::string_view name = list.substr(0, comma);
        list.remove_prefix(comma == list.npos ? list.size() : comma + 1);
        name.remove_prefix(name.find_first_not_of(' '));
        return std::string(name);
    };
    ([&] {
        std::string name = prefix + next();
        if constexpr (!kNestedConfig<M>)
            out.emplace(&members, name);
    }(), ...);
}

/**
 * Bind every member of @p obj and name it.  The binding has to name
 * all members, so these lists cannot fall behind the structs.
 */
#define VPC_NAME_MEMBERS(out, prefix, obj, ...)                        \
    do {                                                               \
        auto &[__VA_ARGS__] = obj;                                     \
        nameMembers(out, prefix, #__VA_ARGS__, __VA_ARGS__);           \
    } while (0)

/**
 * @return every scalar and vector member of @p cfg by name, nested
 *         config structs member by member, found without forEachField
 */
inline FieldNames
fieldNames(const SystemConfig &cfg)
{
    FieldNames out;
    VPC_NAME_MEMBERS(out, "", cfg, numProcessors, core, l1, l2, mem,
                     arbiterPolicy, capacityPolicy, verify, kernelSkip,
                     profile, allowUnallocatedShares, vpcIntraThreadRow,
                     vpcIdleReset, vpcWorkConserving, shares,
                     l1PrefetchPerThread);
    VPC_NAME_MEMBERS(out, "core.", cfg.core, dispatchWidth, robEntries,
                     retireWidth, loadQueueEntries, storeQueueEntries,
                     lsuPorts, storeCommitWidth, lsuRejectProb);
    VPC_NAME_MEMBERS(out, "l1.", cfg.l1, sizeBytes, ways, lineBytes,
                     hitLatency, mshrs, prefetch);
    VPC_NAME_MEMBERS(out, "l1.prefetch.", cfg.l1.prefetch, enable,
                     streams, degree, confidence);
    VPC_NAME_MEMBERS(out, "l2.", cfg.l2, banks, sizeBytes, ways,
                     lineBytes, tagLatency, tagWriteAccesses, dataLatency,
                     dataWriteAccesses, busBeatCycles, busBytes,
                     busOccupancyOverride, interconnectLatency,
                     stateMachinesPerThread, sgbEntriesPerThread,
                     sgbHighWater, readClaimEntries);
    VPC_NAME_MEMBERS(out, "mem.", cfg.mem, ranksPerChannel, banksPerRank,
                     transactionEntries, writeEntries, tRcd, tCl, tRp,
                     tBurst, tWr, ctrlLatency, sharedChannel,
                     schedulerPolicy);
    VPC_NAME_MEMBERS(out, "verify.", cfg.verify, paranoid, auditInterval,
                     watchdogCycles, faultRate, faultSeed);
    return out;
}

/** @return the names of the fields forEachField visits, in order. */
inline std::vector<std::string>
walkedNames(SystemConfig &cfg)
{
    FieldNames names = fieldNames(cfg);
    std::vector<std::string> out;
    forEachField(cfg, [&](auto &v) { out.push_back(names.at(&v)); });
    return out;
}

} // namespace vpc

#endif // VPC_TESTS_SYSTEM_CONFIG_FIELDS_HH
