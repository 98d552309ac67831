/**
 * @file
 * Unit tests for SystemConfig validation (Table 1 defaults).
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "sim/config.hh"
#include "system/experiment.hh"

namespace vpc
{
namespace
{

TEST(SystemConfig, Table1Defaults)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.numProcessors, 4u);
    EXPECT_EQ(cfg.l2.banks, 2u);
    EXPECT_EQ(cfg.l2.sizeBytes, 16ull * 1024 * 1024);
    EXPECT_EQ(cfg.l2.ways, 32u);
    EXPECT_EQ(cfg.l2.tagLatency, 4u);
    EXPECT_EQ(cfg.l2.dataLatency, 8u);
    EXPECT_EQ(cfg.l1.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.l1.ways, 4u);
    EXPECT_EQ(cfg.core.robEntries, 100u);
    EXPECT_EQ(cfg.l2.sgbEntriesPerThread, 8u);
    EXPECT_EQ(cfg.l2.sgbHighWater, 6u);
    EXPECT_EQ(cfg.l2.stateMachinesPerThread, 8u);
}

TEST(SystemConfig, SetsPerBank)
{
    SystemConfig cfg;
    // 8MB per bank / (32 ways * 64B) = 4096 sets.
    EXPECT_EQ(cfg.l2.setsPerBank(), 4096u);
    EXPECT_EQ(cfg.l2.setsPerBank(4), 2048u);
}

TEST(SystemConfig, DefaultSharesAreEqual)
{
    SystemConfig cfg;
    cfg.validate();
    ASSERT_EQ(cfg.shares.size(), 4u);
    for (const QosShare &s : cfg.shares) {
        EXPECT_DOUBLE_EQ(s.phi, 0.25);
        EXPECT_DOUBLE_EQ(s.beta, 0.25);
    }
}

TEST(SystemConfig, OverAllocationFatal)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.shares = {QosShare{0.7, 0.5}, QosShare{0.7, 0.5}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "over-allocated");
}

TEST(SystemConfig, ShareCountMismatchFatal)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.shares = {QosShare{0.5, 0.5}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "shares");
}

TEST(SystemConfig, PartialAllocationIsLegal)
{
    // Figure 1b: 50% + 3 x 10% leaves 20% unallocated.
    SystemConfig cfg;
    cfg.shares = {QosShare{0.5, 0.5}, QosShare{0.1, 0.1},
                  QosShare{0.1, 0.1}, QosShare{0.1, 0.1}};
    cfg.validate();
    EXPECT_DOUBLE_EQ(cfg.shares[0].phi, 0.5);
}

TEST(SystemConfig, PhiZeroUnderVpcArbiterFatal)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.arbiterPolicy = ArbiterPolicy::Vpc;
    cfg.shares = {QosShare{1.0, 0.5}, QosShare{0.0, 0.5}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "phi = 0");
}

TEST(SystemConfig, PhiZeroAllowedWithEscapeHatch)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.arbiterPolicy = ArbiterPolicy::Vpc;
    cfg.allowUnallocatedShares = true;
    cfg.shares = {QosShare{1.0, 0.5}, QosShare{0.0, 0.5}};
    cfg.validate();
}

TEST(SystemConfig, PhiZeroFineUnderNonVpcArbiter)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.arbiterPolicy = ArbiterPolicy::Fcfs;
    cfg.capacityPolicy = CapacityPolicy::Lru;
    cfg.shares = {QosShare{1.0, 0.5}, QosShare{0.0, 0.5}};
    cfg.validate();
}

TEST(SystemConfig, BetaQuotaRoundingToZeroWaysFatal)
{
    // floor(0.02 * 32) = 0 ways: the thread's virtual private cache
    // would hold nothing.
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.capacityPolicy = CapacityPolicy::Vpc;
    cfg.shares = {QosShare{0.5, 0.5}, QosShare{0.5, 0.02}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "rounds to zero");
}

TEST(SystemConfig, BetaQuotaZeroAllowedWithEscapeHatch)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.capacityPolicy = CapacityPolicy::Vpc;
    cfg.allowUnallocatedShares = true;
    cfg.shares = {QosShare{0.5, 0.5}, QosShare{0.5, 0.02}};
    cfg.validate();
}

TEST(SystemConfig, L2SizeMustFactorExactly)
{
    SystemConfig cfg;
    cfg.l2.sizeBytes = 16ull * 1024 * 1024 + 2048;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "not divisible");
}

TEST(SystemConfig, L2SetsPerBankMustBePowerOf2)
{
    SystemConfig cfg;
    // 12MB / (2 banks * 32 ways * 64B) = 3072 sets: divisible but
    // not a power of 2.
    cfg.l2.sizeBytes = 12ull * 1024 * 1024;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "sets per bank");
}

TEST(SystemConfig, L2ZeroWaysFatal)
{
    SystemConfig cfg;
    cfg.l2.ways = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "at least one way");
}

TEST(SystemConfig, L1GeometryMustGivePowerOf2Sets)
{
    SystemConfig cfg;
    cfg.l1.sizeBytes = 48 * 1024; // 192 sets
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "power of 2");
    SystemConfig cfg2;
    cfg2.l1.sizeBytes = 16 * 1024 + 64; // remainder
    EXPECT_EXIT(cfg2.validate(), testing::ExitedWithCode(1),
                "power of 2");
}

TEST(SystemConfig, NonPowerOf2LineSizeFatal)
{
    SystemConfig cfg;
    cfg.l2.lineBytes = 48;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "powers of 2");
}

// A decoded job record can carry any integer in a policy field;
// check() must reject it instead of letting the arbiter factory panic.
// 2 is the retired round-robin arbiter value.

TEST(SystemConfig, UnknownArbiterPolicyRejected)
{
    for (int v : {2, 9}) {
        SystemConfig cfg;
        cfg.normalize();
        cfg.arbiterPolicy = static_cast<ArbiterPolicy>(v);
        EXPECT_NE(cfg.check().find("unknown arbiter policy"),
                  std::string::npos) << "value " << v;
    }
}

TEST(SystemConfig, UnknownSchedulerPolicyRejected)
{
    for (int v : {2, 9}) {
        SystemConfig cfg;
        cfg.normalize();
        cfg.mem.schedulerPolicy = static_cast<ArbiterPolicy>(v);
        EXPECT_NE(cfg.check().find("unknown memory scheduler policy"),
                  std::string::npos) << "value " << v;
    }
}

TEST(SystemConfig, UnknownCapacityPolicyRejected)
{
    SystemConfig cfg;
    cfg.normalize();
    cfg.capacityPolicy = static_cast<CapacityPolicy>(3);
    EXPECT_NE(cfg.check().find("unknown capacity policy"),
              std::string::npos);
}

// Each value below would get through decodeJob unless check() rejects
// it, and would then stop the process while the system is built: a
// model constructor's fatal or, for a zero bus width, a division by
// zero in the L2 bank.  One field per case.

SystemConfig
twoThreadFcfs()
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.arbiterPolicy = ArbiterPolicy::Fcfs;
    cfg.normalize();
    return cfg;
}

bool
rejectedWith(const SystemConfig &cfg, const std::string &what)
{
    return cfg.check().find(what) != std::string::npos;
}

TEST(SystemConfig, L2WaysOver64Rejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l2.ways = 128;
    EXPECT_TRUE(rejectedWith(cfg, "L2 associativity 128 exceeds 64"));
}

TEST(SystemConfig, L1WaysOver64Rejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l1.ways = 128;
    EXPECT_TRUE(rejectedWith(cfg, "L1 associativity 128 exceeds 64"));
}

TEST(SystemConfig, ZeroSgbEntriesRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l2.sgbEntriesPerThread = 0;
    EXPECT_TRUE(rejectedWith(cfg, "high-water mark 6 invalid for 0"));
}

TEST(SystemConfig, SgbHighWaterAboveEntriesRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l2.sgbHighWater = 100;
    EXPECT_TRUE(rejectedWith(cfg, "high-water mark 100 invalid for 8"));
}

TEST(SystemConfig, ZeroTagLatencyRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l2.tagLatency = 0;
    EXPECT_TRUE(rejectedWith(cfg, "latencies and write access counts"));
}

TEST(SystemConfig, ZeroBusBeatRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l2.busBeatCycles = 0;
    EXPECT_TRUE(rejectedWith(cfg, "per 0-cycle beat"));
}

TEST(SystemConfig, ZeroBusWidthRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l2.busBytes = 0;
    EXPECT_TRUE(rejectedWith(cfg, "data bus of 0 B"));
}

TEST(SystemConfig, PrefetcherWithZeroStreamsRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.l1.prefetch.enable = true;
    cfg.l1.prefetch.streams = 0;
    EXPECT_TRUE(rejectedWith(cfg, "zero streams"));
}

TEST(SystemConfig, ZeroDramBanksRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.mem.banksPerRank = 0;
    EXPECT_TRUE(rejectedWith(cfg, "one bank per rank"));
}

TEST(SystemConfig, FaultRateAboveOneRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.verify.faultRate = 2.0;
    EXPECT_TRUE(rejectedWith(cfg, "fault rate 2 out of [0, 1]"));
}

TEST(SystemConfig, VpcArbiterOver64ThreadsRejected)
{
    SystemConfig cfg;
    cfg.numProcessors = 65;
    cfg.arbiterPolicy = ArbiterPolicy::Vpc;
    cfg.capacityPolicy = CapacityPolicy::Lru;
    cfg.normalize();
    EXPECT_TRUE(rejectedWith(cfg, "65 threads exceed"));
}

TEST(SystemConfig, VpcMemorySchedulerZeroBurstRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.mem.sharedChannel = true;
    cfg.mem.schedulerPolicy = ArbiterPolicy::Vpc;
    cfg.mem.tBurst = 0;
    EXPECT_TRUE(rejectedWith(cfg, "needs tBurst > 0"));
}

// A NaN compares false both ways, so only bounds written as
// !(lo <= v && v <= hi) reject it.  A vpcsim flag can parse to NaN
// ("--phi=nan,0.5"), and a job record can carry any bit pattern.

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(SystemConfig, NanPhiRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.shares[0].phi = kNan;
    EXPECT_TRUE(rejectedWith(cfg, "QoS shares must lie in [0, 1]"));
}

TEST(SystemConfig, NanBetaRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.shares[1].beta = kNan;
    EXPECT_TRUE(rejectedWith(cfg, "QoS shares must lie in [0, 1]"));
}

TEST(SystemConfig, NanFaultRateRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.verify.faultRate = kNan;
    EXPECT_TRUE(rejectedWith(cfg, "fault rate nan out of [0, 1]"));
}

TEST(SystemConfig, LsuRejectProbAboveOneRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.core.lsuRejectProb = 2.0;
    EXPECT_TRUE(rejectedWith(cfg, "LSU reject probability 2 out of"));
}

TEST(SystemConfig, NanLsuRejectProbRejected)
{
    SystemConfig cfg = twoThreadFcfs();
    cfg.core.lsuRejectProb = kNan;
    EXPECT_TRUE(rejectedWith(cfg, "LSU reject probability nan out of"));
}

// Each value below sizes an allocation of the model: without a cap a
// decoded job record could make the daemon allocate without bound.

TEST(SystemConfig, AllocationSizesAreCapped)
{
    const std::vector<std::function<void(SystemConfig &)>> over = {
        [](SystemConfig &c) {
            c.numProcessors = 257;
            c.capacityPolicy = CapacityPolicy::Lru;
            c.shares.assign(257, QosShare{0.0, 0.0});
        },
        [](SystemConfig &c) { c.l2.banks = 128; },
        [](SystemConfig &c) { c.l1.sizeBytes = 2ull << 20; },
        [](SystemConfig &c) { c.l2.sizeBytes = 512ull << 20; },
        [](SystemConfig &c) { c.l1.mshrs = 257; },
        [](SystemConfig &c) { c.core.robEntries = 1025; },
        [](SystemConfig &c) { c.core.loadQueueEntries = 1025; },
        [](SystemConfig &c) { c.mem.transactionEntries = 1025; },
        [](SystemConfig &c) { c.mem.writeEntries = 1025; },
        [](SystemConfig &c) { c.l2.stateMachinesPerThread = 65; },
        [](SystemConfig &c) { c.l2.sgbEntriesPerThread = 65; },
        [](SystemConfig &c) { c.mem.ranksPerChannel = 65; },
        [](SystemConfig &c) { c.mem.banksPerRank = 65; },
        [](SystemConfig &c) { c.l1.prefetch.streams = 65; },
        [](SystemConfig &c) {
            c.l1PrefetchPerThread.assign(2, PrefetchConfig{});
            c.l1PrefetchPerThread[1].streams = 65;
        },
    };
    for (std::size_t i = 0; i < over.size(); ++i) {
        SystemConfig cfg = twoThreadFcfs();
        over[i](cfg);
        EXPECT_TRUE(rejectedWith(cfg, "the cap")) << "case " << i;
    }
}

TEST(SystemConfig, CapsAdmitTheLargestCommittedMachine)
{
    // bench_scaleup's 32 processors, 16 banks and 128 MiB L2.
    SystemConfig cfg = makeScaledCmpConfig(32, ArbiterPolicy::Vpc);
    EXPECT_EQ(cfg.l2.sizeBytes, 128ull << 20);
    EXPECT_EQ(cfg.check(), "");
}

TEST(Types, LineAlignAndLog2)
{
    EXPECT_EQ(lineAlign(0x12345, 64), 0x12340u);
    EXPECT_EQ(lineAlign(0x40, 64), 0x40u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(4096), 12u);
}

} // namespace
} // namespace vpc
