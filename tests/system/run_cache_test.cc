/**
 * @file
 * Content-addressed run cache: key soundness and record fidelity.
 *
 * The cache is only allowed to exist because replayed records are
 * bitwise-indistinguishable from executed runs.  These tests pin the
 * three properties that guarantee it: digests are stable under
 * normalization and change under any result-affecting perturbation;
 * a hit returns the missed run's record exactly (memory and disk);
 * and damaged or foreign disk records degrade to misses, never to
 * wrong answers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "sim/cancel.hh"
#include "sim/format.hh"
#include "system/experiment.hh"
#include "system/options.hh"
#include "system/run_cache.hh"

namespace vpc
{
namespace
{

/** A cheap two-thread job (about a millisecond of simulation). */
RunJob
smallJob()
{
    RunJob job;
    job.config = makeBaselineConfig(2, ArbiterPolicy::Fcfs);
    job.workloads = {WorkloadKey{"loads", threadBaseAddr(0), 1},
                     WorkloadKey{"stores", threadBaseAddr(1), 2}};
    job.warmup = 500;
    job.measure = 2'000;
    return job;
}

void
expectSameRecord(const RunRecord &a, const RunRecord &b)
{
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.ipc, b.stats.ipc); // exact: bit-identical runs
    EXPECT_EQ(a.stats.instrs, b.stats.instrs);
    EXPECT_EQ(a.stats.l2Reads, b.stats.l2Reads);
    EXPECT_EQ(a.stats.l2Writes, b.stats.l2Writes);
    EXPECT_EQ(a.stats.l2Misses, b.stats.l2Misses);
    EXPECT_EQ(a.stats.sgbStores, b.stats.sgbStores);
    EXPECT_EQ(a.stats.sgbGathered, b.stats.sgbGathered);
    EXPECT_EQ(a.stats.tagUtil, b.stats.tagUtil);
    EXPECT_EQ(a.stats.dataUtil, b.stats.dataUtil);
    EXPECT_EQ(a.stats.busUtil, b.stats.busUtil);
    EXPECT_EQ(a.kernel.cyclesExecuted.value(),
              b.kernel.cyclesExecuted.value());
    EXPECT_EQ(a.kernel.cyclesSkipped.value(),
              b.kernel.cyclesSkipped.value());
    EXPECT_EQ(a.kernel.ticksExecuted.value(),
              b.kernel.ticksExecuted.value());
    EXPECT_EQ(a.kernel.eventsFired.value(),
              b.kernel.eventsFired.value());
    EXPECT_EQ(a.kernel.wheelCascades.value(),
              b.kernel.wheelCascades.value());
}

/** Fresh per-test directory under the gtest temp root. */
std::string
testDir(const std::string &name)
{
    std::string dir = format("{}/vpc_run_cache_{}", ::testing::TempDir(),
                             name);
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(RunDigest, StableAcrossCopies)
{
    RunJob a = smallJob();
    RunJob b = a;
    EXPECT_EQ(runDigest(a), runDigest(b));
    EXPECT_EQ(runDigest(a), runDigest(a));
}

TEST(RunDigest, NormalizesDefaultedShares)
{
    // Empty shares mean "equal"; validate() fills them in, so the
    // explicit and defaulted spellings are the same job.
    RunJob expl = smallJob();
    RunJob defaulted = expl;
    defaulted.config.shares.clear();
    EXPECT_EQ(runDigest(expl), runDigest(defaulted));
}

TEST(RunDigest, ChangesUnderAnyResultAffectingPerturbation)
{
    const RunJob base = smallJob();
    const std::uint64_t d = runDigest(base);

    RunJob j = base;
    j.config.l2.ways /= 2;
    EXPECT_NE(runDigest(j), d) << "l2 ways";

    j = base;
    j.config.arbiterPolicy = ArbiterPolicy::Vpc;
    EXPECT_NE(runDigest(j), d) << "arbiter policy";

    j = base;
    j.config.shares = {QosShare{0.6, 0.5}, QosShare{0.4, 0.5}};
    EXPECT_NE(runDigest(j), d) << "phi shares";

    j = base;
    j.config.kernelSkip = false;
    EXPECT_NE(runDigest(j), d) << "kernel mode (counters differ)";

    j = base;
    j.workloads[0].spec = "idle";
    EXPECT_NE(runDigest(j), d) << "workload spec";

    j = base;
    j.workloads[1].seed = 99;
    EXPECT_NE(runDigest(j), d) << "workload seed";

    j = base;
    j.workloads[0].base = threadBaseAddr(7);
    EXPECT_NE(runDigest(j), d) << "workload base";

    j = base;
    j.warmup += 1;
    EXPECT_NE(runDigest(j), d) << "warmup";

    j = base;
    j.measure += 1;
    EXPECT_NE(runDigest(j), d) << "measure";

    // The one deliberate exclusion: profiling observes, never alters.
    j = base;
    j.config.profile = true;
    EXPECT_EQ(runDigest(j), d) << "profile must not key";
}

TEST(RunCacheTest, MissThenHitReturnsBitwiseSameRecord)
{
    RunJob job = smallJob();
    RunCache cache;
    RunResult miss = runAndMeasureCached(job, &cache);
    RunResult hit = runAndMeasureCached(job, &cache);
    RunResult uncached = runAndMeasureCached(job, nullptr);
    EXPECT_FALSE(miss.cacheHit);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    expectSameRecord(miss.record, hit.record);
    expectSameRecord(miss.record, uncached.record);
}

TEST(RunCacheTest, DiskRoundTripIsExact)
{
    std::string dir = testDir("roundtrip");
    RunJob job = smallJob();
    std::uint64_t key = runDigest(job);

    RunCache writer(dir);
    RunResult computed = runAndMeasureCached(job, &writer);
    ASSERT_FALSE(computed.cacheHit);

    // A fresh cache (new process, conceptually) must replay the
    // record exactly, including the IEEE-754 bits of every double.
    RunCache reader(dir);
    RunRecord replayed;
    ASSERT_TRUE(reader.probe(key, replayed));
    EXPECT_EQ(reader.diskHits(), 1u);
    expectSameRecord(computed.record, replayed);
    std::filesystem::remove_all(dir);
}

TEST(RunCacheTest, RecordsArePublishedIntoShardedFanout)
{
    std::string dir = testDir("sharded");
    RunJob job = smallJob();
    std::uint64_t key = runDigest(job);

    RunCache writer(dir);
    runAndMeasureCached(job, &writer);

    // The record lands under <dir>/<first digest byte as 2 hex>/.
    std::string path = writer.recordPath(key);
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    std::string shard =
        std::filesystem::path(path).parent_path().filename().string();
    char want[8];
    std::snprintf(want, sizeof(want), "%02llx",
                  static_cast<unsigned long long>(key >> 56));
    EXPECT_EQ(shard, want);
    // And nothing was published flat in the store root.
    EXPECT_FALSE(
        std::filesystem::exists(writer.legacyRecordPath(key)));
    std::filesystem::remove_all(dir);
}

TEST(RunCacheTest, LegacyFlatLayoutRecordsStillServeHits)
{
    std::string dir = testDir("legacy_flat");
    RunJob job = smallJob();
    std::uint64_t key = runDigest(job);

    // Publish sharded, then relocate the record to where a pre-shard
    // store would have put it.
    RunCache writer(dir);
    RunResult computed = runAndMeasureCached(job, &writer);
    ASSERT_FALSE(computed.cacheHit);
    std::filesystem::rename(writer.recordPath(key),
                            writer.legacyRecordPath(key));

    RunCache reader(dir);
    RunRecord replayed;
    ASSERT_TRUE(reader.probe(key, replayed));
    EXPECT_EQ(reader.diskHits(), 1u);
    expectSameRecord(computed.record, replayed);
    std::filesystem::remove_all(dir);
}

TEST(RunCacheTest, CorruptRecordDegradesToMiss)
{
    std::string dir = testDir("corrupt");
    RunJob job = smallJob();
    std::uint64_t key = runDigest(job);

    RunCache writer(dir);
    RunResult computed = runAndMeasureCached(job, &writer);
    ASSERT_FALSE(computed.cacheHit);

    for (const char *garbage :
         {"", "{", "not json at all", "{\"schema\": 999}"}) {
        std::ofstream(writer.recordPath(key), std::ios::trunc)
            << garbage;
        RunCache reader(dir);
        RunRecord out;
        EXPECT_FALSE(reader.probe(key, out)) << garbage;
        // The recompute must still give the right answer and heal
        // the store.
        RunResult healed = runAndMeasureCached(job, &reader);
        EXPECT_FALSE(healed.cacheHit) << garbage;
        expectSameRecord(computed.record, healed.record);
    }
    RunCache reader(dir);
    RunRecord out;
    EXPECT_TRUE(reader.probe(key, out));
    std::filesystem::remove_all(dir);
}

TEST(RunCacheTest, ConcurrentSameKeyComputesOnce)
{
    RunJob job = smallJob();
    RunCache cache;
    std::atomic<int> computes{0};
    std::vector<std::thread> threads;
    std::vector<RunRecord> records(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&, i] {
            records[i] = cache.lookupOrCompute(
                runDigest(job), [&] {
                    ++computes;
                    return runAndMeasureCached(job, nullptr).record;
                });
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    for (int i = 1; i < 4; ++i)
        expectSameRecord(records[0], records[i]);
}

TEST(RunCacheJanitor, ReclaimsTempsOfDeadWritersOnly)
{
    namespace fs = std::filesystem;
    std::string dir = testDir("janitor");
    fs::create_directories(dir);

    // A temp stamped with a pid that cannot be alive (beyond
    // pid_max), one stamped with our own live pid, and a record.
    std::string dead = dir + "/aa.json.tmp.4194304999.0";
    std::string live = format("{}/bb.json.tmp.{}.0", dir,
                              static_cast<std::uint64_t>(::getpid()));
    std::string record = dir + "/cc.json";
    for (const std::string &p : {dead, live, record})
        std::ofstream(p) << "x";

    EXPECT_EQ(RunCache::gcStaleTemps(dir), 1u);
    EXPECT_FALSE(fs::exists(dead));
    EXPECT_TRUE(fs::exists(live));
    EXPECT_TRUE(fs::exists(record));
}

TEST(RunCacheJanitor, ReclaimsPidlessTempsByAgeOnly)
{
    namespace fs = std::filesystem;
    std::string dir = testDir("janitor_age");
    fs::create_directories(dir);

    std::string old_tmp = dir + "/aa.json.tmp.x";
    std::string new_tmp = dir + "/bb.json.tmp.y";
    std::ofstream(old_tmp) << "x";
    std::ofstream(new_tmp) << "x";
    fs::last_write_time(old_tmp, fs::file_time_type::clock::now() -
                                     std::chrono::hours(2));

    EXPECT_EQ(RunCache::gcStaleTemps(dir, std::chrono::minutes(15)),
              1u);
    EXPECT_FALSE(fs::exists(old_tmp));
    EXPECT_TRUE(fs::exists(new_tmp));
}

TEST(RunCacheJanitor, DescendsIntoShardSubdirectories)
{
    namespace fs = std::filesystem;
    std::string dir = testDir("janitor_shards");
    fs::create_directories(dir + "/ab");
    fs::create_directories(dir + "/not-a-shard");

    std::string dead = dir + "/ab/cc.json.tmp.4194304999.0";
    std::string foreign = dir + "/not-a-shard/dd.json.tmp.4194304999.0";
    std::ofstream(dead) << "x";
    std::ofstream(foreign) << "x";

    EXPECT_EQ(RunCache::gcStaleTemps(dir), 1u);
    EXPECT_FALSE(fs::exists(dead));
    // Only 2-hex shard dirs are ours to clean.
    EXPECT_TRUE(fs::exists(foreign));
    fs::remove_all(dir);
}

TEST(RunCacheJanitor, RunsOnStoreOpen)
{
    namespace fs = std::filesystem;
    std::string dir = testDir("janitor_open");
    fs::create_directories(dir);
    std::string dead = dir + "/aa.json.tmp.4194304999.0";
    std::ofstream(dead) << "x";
    RunCache cache(dir);
    EXPECT_FALSE(fs::exists(dead));
}

TEST(RunCacheTest, UnusableStoreDirCountsAStoreError)
{
    // A store dir that is actually a file cannot be created; the
    // cache must degrade to in-process-only and say so in the
    // counter (works even when the tests run as root, unlike a
    // permissions-based probe).
    std::string dir = testDir("store_err");
    std::filesystem::create_directories(dir);
    std::string blocker = dir + "/not_a_dir";
    std::ofstream(blocker) << "x";

    RunCache cache(blocker + "/sub");
    EXPECT_GE(cache.storeErrors(), 1u);

    // Still fully functional as an in-process cache.
    RunRecord rec = cache.lookupOrCompute(1, [] {
        RunRecord r;
        r.endCycle = 42;
        return r;
    });
    EXPECT_EQ(rec.endCycle, 42u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(RunCacheTest, ThrowingComputeReleasesKeyAndWaiters)
{
    RunCache cache;
    EXPECT_THROW(cache.lookupOrCompute(
                     7, []() -> RunRecord {
                         throw std::runtime_error("boom");
                     }),
                 std::runtime_error);

    // The key is not stuck "computing": a retry computes fresh.
    RunRecord rec = cache.lookupOrCompute(7, [] {
        RunRecord r;
        r.endCycle = 9;
        return r;
    });
    EXPECT_EQ(rec.endCycle, 9u);

    // Concurrent flavor: the computer throws while a waiter blocks
    // on the same key; the waiter must take over, not hang.
    std::atomic<bool> first_entered{false};
    std::atomic<bool> release_first{false};
    std::thread thrower([&] {
        try {
            cache.lookupOrCompute(8, [&]() -> RunRecord {
                first_entered.store(true);
                while (!release_first.load())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                throw std::runtime_error("boom");
            });
        } catch (const std::runtime_error &) {
        }
    });
    while (!first_entered.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::thread waiter([&] {
        release_first.store(true);
        RunRecord r = cache.lookupOrCompute(8, [] {
            RunRecord rr;
            rr.endCycle = 11;
            return rr;
        });
        EXPECT_EQ(r.endCycle, 11u);
    });
    thrower.join();
    waiter.join();
}

TEST(RunSupervision, PreCancelledJobThrows)
{
    RunJob job = smallJob();
    CancelToken cancel{true}; // already cancelled
    RunSupervision sup;
    sup.cancel = &cancel;
    EXPECT_THROW(runAndMeasureCached(job, nullptr, &sup), JobCancelled);
}

TEST(RunSupervision, ObserveOnlyForCompletingRuns)
{
    // A supervised run that is never cancelled must produce the
    // exact record an unsupervised run does (counters included) —
    // otherwise the daemon's records would diverge from direct
    // execution.
    RunJob job = smallJob();
    RunResult plain = runAndMeasureCached(job, nullptr);
    CancelToken cancel{false};
    RunSupervision sup;
    sup.cancel = &cancel;
    sup.deadlineMs = 60'000; // generous; must not fire
    RunResult supervised = runAndMeasureCached(job, nullptr, &sup);
    expectSameRecord(plain.record, supervised.record);
}

TEST(RunSupervision, BadWorkloadSpecThrowsCatchably)
{
    RunJob job = smallJob();
    job.workloads[0].spec = "no-such-workload";
    EXPECT_THROW(runAndMeasureCached(job, nullptr),
                 std::runtime_error);
}

} // namespace
} // namespace vpc
