/**
 * @file
 * Job codec tests: a spooled job file must round-trip to exactly the
 * job that was submitted — same digest, hence same cached result —
 * and every damaged or inconsistent record must fail decode instead
 * of executing as a different job (or killing the daemon).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/job_codec.hh"
#include "system/experiment.hh"
#include "system/options.hh"

#include "../system/config_fields.hh"

namespace vpc
{
namespace
{

RunJob
sampleJob()
{
    RunJob job;
    job.config = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    job.config.shares = {QosShare{0.75, 0.5}, QosShare{0.25, 0.5}};
    job.workloads = {WorkloadKey{"art", threadBaseAddr(0), 1},
                     WorkloadKey{"trace:/tmp/x.trace",
                                 threadBaseAddr(1), 2}};
    job.warmup = 1'000;
    job.measure = 5'000;
    return job;
}

TEST(JobCodec, RoundTripPreservesDigest)
{
    RunJob job = sampleJob();
    std::string text = encodeJob(job);
    RunJob back;
    ASSERT_TRUE(decodeJob(text, back));
    EXPECT_EQ(runDigest(job), runDigest(back));
    EXPECT_EQ(back.workloads.size(), 2u);
    EXPECT_EQ(back.workloads[0].spec, "art");
    EXPECT_EQ(back.workloads[1].spec, "trace:/tmp/x.trace");
    EXPECT_EQ(back.workloads[1].base, threadBaseAddr(1));
    EXPECT_EQ(back.warmup, 1'000u);
    EXPECT_EQ(back.measure, 5'000u);
    EXPECT_EQ(back.config.shares[0].phi, 0.75);
    EXPECT_EQ(back.config.arbiterPolicy, ArbiterPolicy::Vpc);
}

TEST(JobCodec, EncodeIsByteStable)
{
    // encode normalizes through validate(), so encode(decode(x))
    // reproduces x byte for byte — resubmitting a decoded job lands
    // on the same spool file.
    RunJob job = sampleJob();
    std::string text = encodeJob(job);
    RunJob back;
    ASSERT_TRUE(decodeJob(text, back));
    EXPECT_EQ(encodeJob(back), text);
}

TEST(JobCodec, NonDefaultScalarsSurvive)
{
    // Every field forEachField visits, changed on its own, decodes to
    // the job that was encoded.
    const RunJob base = sampleJob();
    RunJob probe = base;
    std::vector<std::string> walked = walkedNames(probe.config);
    EXPECT_EQ(walked.size(), 58u);
    for (std::size_t i = 0; i < walked.size(); ++i) {
        RunJob job = base;
        perturbField(job, i);
        std::string text = encodeJob(job);
        RunJob back;
        ASSERT_TRUE(decodeJob(text, back)) << walked[i];
        EXPECT_EQ(runDigest(back), runDigest(job)) << walked[i];
        EXPECT_EQ(encodeJob(back), text) << walked[i];
    }
}

TEST(JobCodec, RecordIsPinned)
{
    // The literal record: forEachField's integers in "cfg" and its
    // two doubles in "cfg_dbl".  If it changes, bump kJobCodecSchema,
    // since spooled jobs would otherwise decode into other fields.
    EXPECT_EQ(
        encodeJob(nonDefaultJob()),
        "{\"svc_schema\": 4, \"digest\": 15514232355642169734, "
        "  \"cfg\": [2, 5, 100, 5, 32, 32, 2, 1, 16384, 4, 64, 2, 16, "
        "0, 4, 2, 2, 2, 16777216, 32, 64, 4, 2, 8, 2, 2, 16, 0, 2, 8, "
        "8, 6, 8, 2, 8, 16, 8, 25, 25, 25, 20, 25, 10, 1, 3, 3, 1, 0, "
        "64, 0, 7, 0, 0, 1, 1, 1],\n"
        "  \"cfg_dbl\": [4593560419846153055, 4562254508917369340],\n"
        "  \"shares\": [4602678819172646912, 4602678819172646912, "
        "4602678819172646912, 4602678819172646912],\n"
        "  \"l1pf\": [1, 4, 2, 2, 1, 8, 1, 3],\n"
        "\"warmup\": 1000, \"measure\": 5000, \"threads\": 2, "
        "\"wl0_spec\": \"art\", \"wl0_base\": 0, \"wl0_seed\": 1, "
        "\"wl1_spec\": \"stores\", \"wl1_base\": 1099511627776, "
        "\"wl1_seed\": 2}\n");
}

TEST(JobCodec, RejectsThreadCountMismatchWithoutDying)
{
    // A record with fewer workloads than processors parses, but
    // CmpSystem stops the process on it, and the daemon runs decoded
    // jobs in-process.
    RunJob job;
    job.config = makeBaselineConfig(2, ArbiterPolicy::Fcfs);
    job.workloads = {WorkloadKey{"loads", threadBaseAddr(0), 1}};
    job.warmup = 1'000;
    job.measure = 5'000;
    RunJob out;
    EXPECT_FALSE(decodeJob(encodeJob(job), out));
}

TEST(JobCodec, RejectsDamage)
{
    std::string text = encodeJob(sampleJob());
    RunJob out;

    // Truncation at any point.
    for (std::size_t cut : {text.size() / 4, text.size() / 2,
                            text.size() - 2}) {
        EXPECT_FALSE(decodeJob(text.substr(0, cut), out));
    }

    // A flipped config value no longer matches the embedded digest.
    std::string tampered = text;
    std::size_t pos = tampered.find("\"cfg\": [");
    ASSERT_NE(pos, std::string::npos);
    pos += 8;
    tampered[pos] = tampered[pos] == '4' ? '8' : '4';
    EXPECT_FALSE(decodeJob(tampered, out));

    // Garbage and empty input.
    EXPECT_FALSE(decodeJob("", out));
    EXPECT_FALSE(decodeJob("not a record", out));
    EXPECT_FALSE(decodeJob("{\"svc_schema\": 999}", out));
}

TEST(JobCodec, RejectsInsaneConfigWithoutDying)
{
    // Craft a record whose fields parse but whose config is
    // internally inconsistent (numProcessors = 0).  decode must
    // return false — not exit the process through validate().
    RunJob job = sampleJob();
    std::string text = encodeJob(job);
    // numProcessors is the first cfg array element ("...\"cfg\": [2, ").
    std::size_t pos = text.find("\"cfg\": [");
    ASSERT_NE(pos, std::string::npos);
    pos += 8;
    ASSERT_EQ(text[pos], '2');
    text[pos] = '0';
    RunJob out;
    EXPECT_FALSE(decodeJob(text, out));
}

TEST(JobCodec, RejectsZeroBusWidthWithoutDying)
{
    // A record whose l2.busBytes is 0 parses, but a system built from
    // it divides by zero in the L2 bank constructor; the daemon runs
    // decoded jobs in-process, so decode must reject it.  The field is
    // the one cfg element that differs between a 16 B and a 32 B bus.
    RunJob job = sampleJob();
    std::string text = encodeJob(job);
    job.config.l2.busBytes = 32;
    std::string wide = encodeJob(job);
    // The digests differ in front of the array, so align on it.
    std::size_t pos = text.find("\"cfg\": [");
    std::size_t wide_pos = wide.find("\"cfg\": [");
    ASSERT_NE(pos, std::string::npos);
    ASSERT_NE(wide_pos, std::string::npos);
    while (text[pos] == wide[wide_pos]) {
        ++pos;
        ++wide_pos;
    }
    ASSERT_EQ(text.compare(pos, 4, "16, "), 0);
    text.replace(pos, 2, "0");
    RunJob out;
    EXPECT_FALSE(decodeJob(text, out));
}

} // namespace
} // namespace vpc
