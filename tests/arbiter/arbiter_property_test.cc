/**
 * @file
 * Parameterized property tests over the arbiter implementations.
 *
 * These sweep share allocations, request mixes and policies and check
 * the invariants the paper's QoS argument rests on:
 *
 *  - every enqueued request is granted exactly once (no loss, no
 *    duplication), under every policy;
 *  - a VPC thread's *service-time* fraction converges to its share
 *    phi whenever it stays backlogged, independent of the competing
 *    mix;
 *  - a thread operating within its allocated rate observes a bounded
 *    grant delay (the fair-queuing deadline + one maximum service
 *    time, Section 4.1.2);
 *  - shares are conserved: the sum of service fractions is 1 when the
 *    resource is saturated.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "arbiter/arbiter_factory.hh"
#include "sim/random.hh"

namespace vpc
{
namespace
{

ArbRequest
makeReq(ThreadId t, SeqNum seq, bool write, Addr line)
{
    ArbRequest r;
    r.id = static_cast<std::uint32_t>(seq & 0xffffffff);
    r.thread = t;
    r.seq = seq;
    r.isWrite = write;
    r.lineAddr = line;
    return r;
}

// ---------------------------------------------------------------------
// Exactly-once delivery under every policy.
// ---------------------------------------------------------------------

class PolicySweep : public ::testing::TestWithParam<ArbiterPolicy>
{};

TEST_P(PolicySweep, EveryRequestGrantedExactlyOnce)
{
    const unsigned threads = 4;
    std::vector<double> shares(threads, 1.0 / threads);
    auto arb = makeArbiter(GetParam(), threads, 8, 2, shares);

    Rng rng(123, 7);
    std::map<SeqNum, unsigned> granted;
    SeqNum seq = 0;
    Cycle now = 0;
    unsigned enqueued = 0;
    for (unsigned round = 0; round < 3000; ++round) {
        // Random arrivals.
        while (rng.chance(0.6) && enqueued - granted.size() < 32) {
            ThreadId t = rng.below(threads);
            arb->enqueue(makeReq(t, seq, rng.chance(0.3),
                                 0x40 * rng.below(16)),
                         now);
            granted[seq] = 0;
            ++seq;
            ++enqueued;
        }
        if (auto r = arb->select(now))
            ++granted.at(r->seq);
        now += 8;
    }
    while (auto r = arb->select(now)) {
        ++granted.at(r->seq);
        now += 8;
    }
    for (const auto &[s, count] : granted)
        EXPECT_EQ(count, 1u) << "seq " << s;
    EXPECT_FALSE(arb->hasPending());
    EXPECT_EQ(arb->pendingCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(ArbiterPolicy::Fcfs, ArbiterPolicy::RowFcfs,
                      ArbiterPolicy::Vpc),
    [](const auto &info) {
        return std::string(arbiterPolicyName(info.param)) == "RoW-FCFS"
            ? std::string("RowFcfs")
            : std::string(arbiterPolicyName(info.param));
    });

// ---------------------------------------------------------------------
// Service-share convergence across allocations and mixes.
// ---------------------------------------------------------------------

struct ShareCase
{
    double phi0;
    double writeFrac0; //!< writes in thread 0's mix
    double writeFrac1;
};

class VpcShareSweep : public ::testing::TestWithParam<ShareCase>
{};

TEST_P(VpcShareSweep, ServiceFractionMatchesShare)
{
    const ShareCase c = GetParam();
    auto arb = makeArbiter(ArbiterPolicy::Vpc, 2, 8, 2,
                           {c.phi0, 1.0 - c.phi0});
    Rng rng(99, 3);
    double service[2] = {0.0, 0.0};
    SeqNum seq = 0;
    Cycle now = 0;
    for (unsigned i = 0; i < 6000; ++i) {
        while (arb->pendingCount(0) < 4) {
            arb->enqueue(makeReq(0, seq, rng.chance(c.writeFrac0),
                                 0x40 * (seq % 9)),
                         now);
            ++seq;
        }
        while (arb->pendingCount(1) < 4) {
            arb->enqueue(makeReq(1, seq, rng.chance(c.writeFrac1),
                                 0x40 * (seq % 11)),
                         now);
            ++seq;
        }
        auto r = arb->select(now);
        ASSERT_TRUE(r);
        Cycle occ = r->isWrite ? 16 : 8;
        service[r->thread] += static_cast<double>(occ);
        now += occ;
    }
    double frac0 = service[0] / (service[0] + service[1]);
    EXPECT_NEAR(frac0, c.phi0, 0.015)
        << "phi0=" << c.phi0 << " wf0=" << c.writeFrac0
        << " wf1=" << c.writeFrac1;
}

INSTANTIATE_TEST_SUITE_P(
    SharesAndMixes, VpcShareSweep,
    ::testing::Values(ShareCase{0.1, 0.0, 0.0},
                      ShareCase{0.25, 0.0, 1.0},
                      ShareCase{0.25, 1.0, 0.0},
                      ShareCase{0.5, 0.5, 0.5},
                      ShareCase{0.75, 0.2, 0.8},
                      ShareCase{0.9, 1.0, 1.0}),
    [](const auto &info) {
        return "phi" +
               std::to_string(static_cast<int>(
                   info.param.phi0 * 100)) +
               "w" +
               std::to_string(static_cast<int>(
                   info.param.writeFrac0 * 100)) +
               "v" +
               std::to_string(static_cast<int>(
                   info.param.writeFrac1 * 100));
    });

// ---------------------------------------------------------------------
// Bounded delay for a thread operating within its allocation.
// ---------------------------------------------------------------------

class VpcDelayBound : public ::testing::TestWithParam<double>
{};

TEST_P(VpcDelayBound, WithinRateRequestsMeetDeadlinePlusPreemption)
{
    const double phi = GetParam();
    const Cycle latency = 8;
    auto arb = makeArbiter(ArbiterPolicy::Vpc, 2, latency, 2,
                           {phi, 1.0 - phi});
    Rng rng(7, 11);

    // Thread 1 floods with writes (worst-case 16-cycle services);
    // thread 0 submits one read at a time, at most one outstanding:
    // well within its rate.
    SeqNum seq = 1000;
    Cycle now = 0;
    bool t0_outstanding = false;
    Cycle t0_submit = 0;
    double worst_delay = 0.0;
    unsigned t0_grants = 0;
    while (t0_grants < 300) {
        while (arb->pendingCount(1) < 4)
            arb->enqueue(makeReq(1, seq++, true, 0x80), now);
        if (!t0_outstanding) {
            arb->enqueue(makeReq(0, seq++, false, 0x40), now);
            t0_outstanding = true;
            t0_submit = now;
        }
        auto r = arb->select(now);
        ASSERT_TRUE(r);
        if (r->thread == 0) {
            worst_delay = std::max(
                worst_delay, static_cast<double>(now - t0_submit));
            t0_outstanding = false;
            ++t0_grants;
        }
        now += r->isWrite ? 16 : 8;
    }
    // Fair-queuing bound: virtual deadline L/phi plus one maximum
    // (non-preemptible) service time.
    double bound = static_cast<double>(latency) / phi + 16.0;
    EXPECT_LE(worst_delay, bound) << "phi=" << phi;
}

INSTANTIATE_TEST_SUITE_P(Allocations, VpcDelayBound,
                         ::testing::Values(0.2, 0.25, 0.5, 0.75),
                         [](const auto &info) {
                             return "phi" + std::to_string(
                                 static_cast<int>(info.param * 100));
                         });

} // namespace
} // namespace vpc
