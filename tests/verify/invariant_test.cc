/**
 * @file
 * Death tests proving each invariant auditor fires under its matching
 * injected fault, and that a clean machine audits clean.
 *
 * Structure: one unit-level test per auditor against a standalone
 * component perturbed through its sanctioned fault hook, then
 * system-level tests exercising the full CmpSystem wiring (audit hook
 * each cycle, fault registration, panic state dump).
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "arbiter/fcfs_arbiter.hh"
#include "arbiter/row_fcfs_arbiter.hh"
#include "arbiter/vpc_arbiter.hh"
#include "cache/cache_array.hh"
#include "sim/event_queue.hh"
#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "verify/auditors.hh"
#include "workload/microbench.hh"

namespace vpc
{
namespace
{

ArbRequest
makeReq(ThreadId t, SeqNum seq, bool write = false)
{
    ArbRequest r;
    r.thread = t;
    r.seq = seq;
    r.isWrite = write;
    return r;
}

// --------------------------------------------------------------
// VpcArbiterAuditor
// --------------------------------------------------------------

TEST(VpcArbiterAuditorDeath, CatchesVirtualTimeRegression)
{
    VpcArbiter arb(2, 4, 2, {0.5, 0.5});
    VpcArbiterAuditor aud(arb, "t");
    arb.enqueue(makeReq(0, 1), 0);
    arb.enqueue(makeReq(1, 2), 0);
    ASSERT_TRUE(arb.select(0));
    aud.check(10); // records R.S_i > 0 for the granted thread
    arb.faultCorruptVirtualTime(0, 1e6);
    arb.faultCorruptVirtualTime(1, 1e6);
    EXPECT_DEATH(aud.check(11), "virtual time regressed");
}

TEST(VpcArbiterAuditorDeath, CatchesMissedEquation6Reset)
{
    // Wall-clock mode: an idle thread's R.S_i is floored to the
    // cycle counter when it becomes busy (Equation 6), so after an
    // idle->pending transition it can never lie before the previous
    // audit's cycle.
    VpcArbiter arb(2, 4, 2, {0.5, 0.5});
    ASSERT_FALSE(arb.vpcOptions().virtualClock);
    VpcArbiterAuditor aud(arb, "t");
    aud.check(100); // thread 0 idle here
    arb.enqueue(makeReq(0, 1), 150); // Equation 6 floors R.S_0 to 150
    arb.faultCorruptVirtualTime(0, 100.0); // ...rewound to 50
    EXPECT_DEATH(aud.check(160), "Equation 6");
}

TEST(VpcArbiterAuditorDeath, CatchesUnboundedVirtualClockLag)
{
    // Virtual-clock mode: EDF grants guarantee the system clock
    // never runs more than one maximal virtual service past a
    // backlogged thread's R.S_i.
    VpcArbiterOptions opts;
    opts.virtualClock = true;
    VpcArbiter arb(2, 4, 2, {0.5, 0.5}, opts);
    VpcArbiterAuditor aud(arb, "t");
    // Thread 1 alone advances the clock far ahead.
    Cycle now = 0;
    for (SeqNum s = 1; s <= 30; ++s) {
        arb.enqueue(makeReq(1, s), now);
        ASSERT_TRUE(arb.select(now));
        now += 4;
    }
    // Thread 0 becomes busy: Equation 6 floors R.S_0 to the clock,
    // within the lag bound -- until the register is rewound.
    arb.enqueue(makeReq(0, 31), now);
    arb.faultCorruptVirtualTime(0, 1e6);
    aud.check(now); // first check only records state
    EXPECT_DEATH(aud.check(now + 1), "past backlogged thread");
}

TEST(VpcArbiterAuditor, CleanArbiterAuditsClean)
{
    VpcArbiter arb(2, 4, 2, {0.5, 0.5});
    VpcArbiterAuditor aud(arb, "t");
    Cycle now = 0;
    for (SeqNum s = 1; s <= 50; ++s) {
        arb.enqueue(makeReq(s % 2, s, s % 3 == 0), now);
        arb.select(now);
        aud.check(now);
        now += 4;
    }
    arb.select(now);
    aud.check(now);
}

// --------------------------------------------------------------
// ArbiterConservationAuditor
// --------------------------------------------------------------

template <typename Arb>
void
expectConservationCatchesDrop()
{
    Arb arb(2);
    ArbiterConservationAuditor aud(arb, "t");
    arb.enqueue(makeReq(0, 1), 0);
    arb.enqueue(makeReq(0, 2, true), 0);
    arb.enqueue(makeReq(1, 3), 0);
    ASSERT_TRUE(arb.select(0));
    aud.check(1); // admitted == granted + pending on every thread
    ASSERT_TRUE(arb.faultDropOldest(0) || arb.faultDropOldest(1));
    EXPECT_DEATH(aud.check(2), "not conserved");
}

TEST(ConservationAuditorDeath, CatchesDropInFcfs)
{
    expectConservationCatchesDrop<FcfsArbiter>();
}

TEST(ConservationAuditorDeath, CatchesDropInRowFcfs)
{
    expectConservationCatchesDrop<RowFcfsArbiter>();
}

TEST(ConservationAuditorDeath, CatchesDropInVpc)
{
    VpcArbiter arb(2, 4, 2, {0.5, 0.5});
    ArbiterConservationAuditor aud(arb, "t");
    arb.enqueue(makeReq(0, 1), 0);
    arb.enqueue(makeReq(0, 2), 0);
    aud.check(1);
    ASSERT_TRUE(arb.faultDropOldest(0));
    EXPECT_DEATH(aud.check(2), "not conserved");
}

// --------------------------------------------------------------
// CapacityAuditor + victim audit
// --------------------------------------------------------------

TEST(CapacityAuditorDeath, CatchesOwnershipFlip)
{
    CacheArray arr(4, 2, 64);
    arr.insert(0, 0, false);
    arr.insert(4 * 64, 1, false);
    CapacityAuditor aud(arr, 2, "arr", /*walk_period=*/1);
    aud.check(0); // tracked counters match the array walk
    ASSERT_TRUE(arr.faultFlipOwner(1));
    EXPECT_DEATH(aud.check(1), "drifted");
}

TEST(VictimAuditDeath, CatchesQuotaViolatingEviction)
{
    CacheArray arr(4, 4, 64, CapacityPolicy::Vpc, {0.5, 0.5});
    arr.setVictimAudit(makeVpcVictimAudit(arr, "arr"));

    // Fill set 0: each thread holds exactly its quota (2 ways).
    constexpr Addr kSetStride = 4 * 64;
    arr.insert(0 * kSetStride, 0, false);
    arr.insert(1 * kSetStride, 0, false);
    arr.insert(2 * kSetStride, 1, false);
    arr.insert(3 * kSetStride, 1, false);

    // A clean insert by thread 0 must evict thread 0's own line
    // (condition 2), which the audit accepts.
    arr.insert(4 * kSetStride, 0, false);

    // Forcing the victim onto thread 1 -- which holds no more than
    // its allocation -- is exactly the replacement bug condition 1
    // forbids.
    std::span<const CacheLine> set = arr.setLines(0);
    unsigned way1 = arr.numWays();
    for (unsigned w = 0; w < arr.numWays(); ++w) {
        if (set[w].valid && set[w].owner == 1)
            way1 = w;
    }
    ASSERT_LT(way1, arr.numWays());
    arr.faultForceNextVictim(way1);
    EXPECT_DEATH(arr.insert(5 * kSetStride, 0, false), "condition 1");
}

// --------------------------------------------------------------
// EventQueueAuditor
// --------------------------------------------------------------

TEST(EventQueueAuditorDeath, CatchesStaleEvent)
{
    EventQueue q;
    q.schedule(5, [] {});
    EventQueueAuditor aud(q);
    aud.check(3); // event still in the future: fine
    EXPECT_DEATH(aud.check(10), "stale event");
}

// --------------------------------------------------------------
// Full-system wiring
// --------------------------------------------------------------

std::vector<std::unique_ptr<Workload>>
loadsAndStores()
{
    std::vector<std::unique_ptr<Workload>> wl;
    wl.push_back(std::make_unique<LoadsBenchmark>(0));
    wl.push_back(std::make_unique<StoresBenchmark>(1ull << 32));
    return wl;
}

TEST(VerifySystem, ParanoidRunWithNoFaultsIsClean)
{
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    cfg.verify.paranoid = 2;
    cfg.verify.watchdogCycles = 10'000;
    CmpSystem sys(cfg, loadsAndStores());
    ASSERT_NE(sys.verifier(), nullptr);
    sys.run(30'000);
    // Paranoid level 2 sweeps every checker every cycle.
    EXPECT_EQ(sys.verifier()->auditsRun(), 30'000u);
    EXPECT_GT(sys.cpu(0).instrsRetired(), 0u);
    EXPECT_GT(sys.cpu(1).instrsRetired(), 0u);
}

TEST(VerifySystem, ParanoidLevel1AuditsOnTheInterval)
{
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Fcfs);
    cfg.verify.paranoid = 1;
    cfg.verify.auditInterval = 64;
    CmpSystem sys(cfg, loadsAndStores());
    ASSERT_NE(sys.verifier(), nullptr);
    sys.run(6'400);
    EXPECT_EQ(sys.verifier()->auditsRun(), 100u);
}

TEST(VerifySystem, DisabledVerifyInstallsNothing)
{
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    CmpSystem sys(cfg, loadsAndStores());
    EXPECT_EQ(sys.verifier(), nullptr);
}

TEST(VerifySystem, DumpStateRendersTheMachine)
{
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    cfg.verify.paranoid = 1;
    CmpSystem sys(cfg, loadsAndStores());
    sys.run(1'000);
    std::string dump = sys.dumpState();
    EXPECT_NE(dump.find("cycle"), std::string::npos);
    EXPECT_NE(dump.find("bank0"), std::string::npos);
}

TEST(VerifySystemDeath, InjectedFaultsTripTheAuditors)
{
    // With every fault hook registered and checks every cycle, a
    // corrupted machine must be diagnosed: the run dies in a panic
    // (whichever auditor catches its fault first) instead of
    // completing with silently wrong state.
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    cfg.verify.paranoid = 2;
    cfg.verify.faultRate = 0.02;
    cfg.verify.faultSeed = 7;
    CmpSystem sys(cfg, loadsAndStores());
    ASSERT_NE(sys.verifier(), nullptr);
    ASSERT_NE(sys.verifier()->injector(), nullptr);
    EXPECT_DEATH(sys.run(60'000), "panic");
}

} // namespace
} // namespace vpc
