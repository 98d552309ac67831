/**
 * @file
 * Microbenchmarks of the SoA hot scans (DESIGN.md 5i): the
 * way-parallel tag match (CacheArray::lookup), the victim scan
 * (CacheArray::insert -> minStampWay / overage masks) and the RoW
 * candidate scan (rowCandidateIndex), each over every CapacityPolicy
 * the fill path dispatches on.
 *
 * Every case runs twice — once with vec::forceScalar set (the scalar
 * reference bodies) and once on the compiled vector path — so the
 * report shows the SIMD speedup directly, and the two passes are
 * cross-checked (hit counts and victim checksums must agree, a cheap
 * standing instance of the SoA oracle differential).  In a
 * -DVPC_SIMD=OFF build both passes run scalar and the ratio is ~1.
 *
 * Flags:
 *   --smoke       reduced iteration counts (the tier-1 ctest entry)
 *   --json=PATH   JSON report path (default BENCH_micro_cache.json)
 *
 * The JSON rides on BenchReporter: "sim_cycles"/"events_fired" carry
 * the total scan operations, and the per-case ns/op table lands in a
 * "micro_cache" section.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "arbiter/arb_request.hh"
#include "arbiter/row_scan.hh"
#include "bench_common.hh"
#include "cache/cache_array.hh"
#include "sim/vec.hh"

using namespace vpc;

namespace
{

/** xorshift64*: cheap deterministic address stream. */
std::uint64_t
nextRand(std::uint64_t &s)
{
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
}

constexpr unsigned kSets = 256;
constexpr unsigned kWays = 16;
constexpr unsigned kLine = 64;
constexpr unsigned kThreads = 4;

const char *
policyName(CapacityPolicy policy)
{
    switch (policy) {
      case CapacityPolicy::Lru: return "lru";
      case CapacityPolicy::Vpc: return "vpc";
      case CapacityPolicy::GlobalOccupancy: return "global_occ";
    }
    return "?";
}

struct CaseResult
{
    std::string label;
    double nsPerOpScalar = 0.0;
    double nsPerOpVector = 0.0;
    std::uint64_t ops = 0;
};

/**
 * Time @p ops invocations of @p body (called with the op index) and
 * return ns/op.  @p checksum accumulates body results so the work is
 * observable and the scalar/vector passes can be cross-checked.
 */
template <class Body>
double
timeLoop(std::uint64_t ops, std::uint64_t &checksum, Body &&body)
{
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        checksum += body(i);
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(ops);
}

/**
 * One scalar-then-vector measurement of @p body on a fresh fixture
 * from @p make.  Panics (exit 1) if the two passes disagree.
 */
template <class Make, class Run>
CaseResult
differential(const std::string &label, std::uint64_t ops,
             Make &&make, Run &&run)
{
    CaseResult r;
    r.label = label;
    r.ops = 2 * ops;
    std::uint64_t sumScalar = 0, sumVector = 0;

    vec::forceScalar = true;
    {
        auto fixture = make();
        r.nsPerOpScalar = timeLoop(ops, sumScalar, [&](std::uint64_t i) {
            return run(*fixture, i);
        });
    }
    vec::forceScalar = false;
    {
        auto fixture = make();
        r.nsPerOpVector = timeLoop(ops, sumVector, [&](std::uint64_t i) {
            return run(*fixture, i);
        });
    }
    if (sumScalar != sumVector) {
        std::fprintf(stderr,
                     "bench_micro_cache: %s: scalar/vector checksum "
                     "mismatch (%llu vs %llu)\n",
                     label.c_str(),
                     static_cast<unsigned long long>(sumScalar),
                     static_cast<unsigned long long>(sumVector));
        std::exit(1);
    }
    return r;
}

/** A filled CacheArray plus the address stream that filled it. */
struct CacheFixture
{
    std::unique_ptr<CacheArray> array;
    std::vector<Addr> addrs;
};

std::unique_ptr<CacheFixture>
makeCacheFixture(CapacityPolicy policy, std::uint64_t footprint_lines)
{
    auto f = std::make_unique<CacheFixture>();
    f->array = std::make_unique<CacheArray>(
        kSets, kWays, kLine, policy,
        std::vector<double>(kThreads, 1.0 / kThreads));
    std::uint64_t seed = 0x9E3779B97F4A7C15ull;
    f->addrs.reserve(footprint_lines);
    for (std::uint64_t i = 0; i < footprint_lines; ++i)
        f->addrs.push_back((nextRand(seed) % footprint_lines) * kLine);
    for (std::uint64_t i = 0; i < footprint_lines; ++i) {
        f->array->insert(f->addrs[i],
                         static_cast<ThreadId>(i % kThreads),
                         (i & 7) == 0);
    }
    return f;
}

/** RoW queues: mixed reads/writes/prefetches with same-line hazards. */
struct RowFixture
{
    std::vector<std::vector<ArbRequest>> queues;
    mutable std::vector<Addr> scratch;
};

std::unique_ptr<RowFixture>
makeRowFixture(std::size_t num_queues, std::size_t depth)
{
    auto f = std::make_unique<RowFixture>();
    std::uint64_t seed = 0xC0FFEE123456789ull;
    f->queues.resize(num_queues);
    SeqNum seq = 0;
    for (auto &q : f->queues) {
        for (std::size_t i = 0; i < depth; ++i) {
            ArbRequest r;
            r.thread = 0;
            r.seq = seq++;
            std::uint64_t x = nextRand(seed);
            r.isWrite = (x & 3) == 0;
            r.isPrefetch = !r.isWrite && (x & 4) == 0;
            // Small address pool so read-over-write hazards actually
            // occur and the exact-membership probe runs.
            r.lineAddr = ((x >> 3) % 24) * kLine;
            q.push_back(r);
        }
    }
    return f;
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

    const std::uint64_t lookups = smoke ? 20'000 : 2'000'000;
    const std::uint64_t inserts = smoke ? 10'000 : 1'000'000;
    const std::uint64_t rowScans = smoke ? 5'000 : 500'000;

    BenchReporter rep("micro_cache");
    rep.setQuick(smoke);
    std::vector<CaseResult> results;

    const CapacityPolicy policies[] = {CapacityPolicy::Lru,
                                       CapacityPolicy::Vpc,
                                       CapacityPolicy::GlobalOccupancy};
    for (CapacityPolicy policy : policies) {
        // Tag match: ~2x the cache's line capacity, so the stream
        // mixes hits and misses and every lookup scans a full set.
        const std::uint64_t footprint = 2ull * kSets * kWays;
        results.push_back(differential(
            std::string("tag_match/") + policyName(policy), lookups,
            [&] { return makeCacheFixture(policy, footprint); },
            [](CacheFixture &f, std::uint64_t i) -> std::uint64_t {
                Addr a = f.addrs[i % f.addrs.size()];
                return f.array->lookup(
                    a, true,
                    static_cast<ThreadId>(i % kThreads)) ? 1 : 0;
            }));

        // Victim scan: every insert displaces a line once the array
        // is full, so this times chooseVictim (min-stamp scan under
        // LRU, the overage-mask walk under the capacity managers).
        results.push_back(differential(
            std::string("victim_scan/") + policyName(policy), inserts,
            [&] { return makeCacheFixture(policy, footprint); },
            [](CacheFixture &f, std::uint64_t i) -> std::uint64_t {
                Addr a = f.addrs[(i * 7) % f.addrs.size()] +
                         (i << 24);
                Eviction ev = f.array->insert(
                    a, static_cast<ThreadId>(i % kThreads), false);
                return ev.valid ? (ev.lineAddr & 0xFFFF) : 0;
            }));
    }

    // RoW candidate scan: policy-independent (both the VPC arbiter's
    // intra-thread reorder and the RoW-FCFS baseline run this).
    results.push_back(differential(
        "row_scan/deep32", rowScans,
        [] { return makeRowFixture(64, 32); },
        [](RowFixture &f, std::uint64_t i) -> std::uint64_t {
            const auto &q = f.queues[i % f.queues.size()];
            return rowCandidateIndex(q, f.scratch);
        }));

    std::uint64_t totalOps = 0;
    for (const CaseResult &r : results)
        totalOps += r.ops;
    KernelStats k;
    k.cyclesExecuted.inc(totalOps);
    k.eventsFired.inc(totalOps);
    rep.addRun(totalOps, k);
    rep.finish();

    std::fprintf(stderr, "%-28s %12s %12s %8s\n", "case",
                 "scalar ns/op", "simd ns/op", "speedup");
    std::string json = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult &r = results[i];
        double speedup = r.nsPerOpVector > 0.0
            ? r.nsPerOpScalar / r.nsPerOpVector : 0.0;
        std::fprintf(stderr, "%-28s %12.1f %12.1f %7.2fx\n",
                     r.label.c_str(), r.nsPerOpScalar,
                     r.nsPerOpVector, speedup);
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "%s\n    {\"case\": \"%s\", "
                      "\"ns_per_op_scalar\": %.1f, "
                      "\"ns_per_op_simd\": %.1f}",
                      i == 0 ? "" : ",", r.label.c_str(),
                      r.nsPerOpScalar, r.nsPerOpVector);
        json += buf;
    }
    json += "\n  ]";
    rep.setExtraSection("micro_cache", json);

    rep.printSummary();
    rep.writeJson(jsonPath);
    return 0;
}
