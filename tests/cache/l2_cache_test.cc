/**
 * @file
 * Unit tests for the banked L2 wrapper: address interleaving,
 * crossbar latency, stat aggregation and share fan-out.
 */

#include <gtest/gtest.h>

#include <memory>

#include "arbiter/vpc_arbiter.hh"
#include "cache/l2_cache.hh"
#include "sim/simulator.hh"

namespace vpc
{
namespace
{

class L2CacheTest : public ::testing::Test
{
  protected:
    explicit L2CacheTest(ArbiterPolicy policy = ArbiterPolicy::Vpc)
    {
        cfg.numProcessors = 2;
        cfg.arbiterPolicy = policy;
        cfg.validate();
        mc = std::make_unique<MemoryController>(cfg.mem, 2, 64,
                                                sim.events());
        l2 = std::make_unique<L2Cache>(cfg, sim.events(), *mc);
        l2->setResponseHandler([this](ThreadId t, Addr la) {
            responses.push_back({t, la, sim.now()});
        });
        sim.addTicking(l2.get());
        sim.addTicking(mc.get());
        sim.addFusedChain(l2->transitChain());
        sim.addFusedChain(l2->responseChain());
    }

    struct Response
    {
        ThreadId thread;
        Addr lineAddr;
        Cycle at;
    };

    void
    runToIdle(Cycle limit = 20'000)
    {
        // Let crossbar transits land before polling quiesced().
        Cycle end = sim.now() + limit;
        sim.run(4);
        while (sim.now() < end && !l2->quiesced())
            sim.step();
    }

    SystemConfig cfg;
    Simulator sim;
    std::unique_ptr<MemoryController> mc;
    std::unique_ptr<L2Cache> l2;
    std::vector<Response> responses;
};

TEST_F(L2CacheTest, LineInterleavesAcrossBanks)
{
    EXPECT_EQ(l2->bankOf(0x0), 0u);
    EXPECT_EQ(l2->bankOf(0x40), 1u);
    EXPECT_EQ(l2->bankOf(0x80), 0u);
    EXPECT_EQ(l2->bankOf(0x7F), 1u); // sub-line offset irrelevant
}

TEST_F(L2CacheTest, LoadsRouteToTheRightBank)
{
    l2->load(0, 0x0, sim.now());
    l2->load(0, 0x40, sim.now());
    runToIdle();
    EXPECT_EQ(l2->bank(0).readCount(0), 1u);
    EXPECT_EQ(l2->bank(1).readCount(0), 1u);
    EXPECT_EQ(l2->readCount(0), 2u); // aggregation
}

TEST_F(L2CacheTest, CrossbarAddsRequestLatency)
{
    // Warm the line, then measure a hit round trip: 2 (request
    // crossbar) + 14 (bank pipeline) = 16 cycles.
    l2->load(0, 0x1000, sim.now());
    runToIdle();
    responses.clear();
    while (sim.now() & 1)
        sim.step();
    Cycle start = sim.now();
    l2->load(0, 0x1000, start);
    runToIdle();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].at - start, 16u);
}

TEST_F(L2CacheTest, StoreBackpressurePerBankPerThread)
{
    L2Config l2cfg;
    // Fill thread 0's gathering buffer on bank 0 (line addresses all
    // map to bank 0; distinct lines so nothing gathers).
    unsigned accepted = 0;
    for (unsigned i = 0; i < 2 * l2cfg.sgbEntriesPerThread; ++i) {
        if (l2->store(0, 0x80ull * i, sim.now()))
            ++accepted;
    }
    EXPECT_EQ(accepted, l2cfg.sgbEntriesPerThread);
    // Other thread and other bank are unaffected.
    EXPECT_TRUE(l2->store(1, 0x0, sim.now()));
    EXPECT_TRUE(l2->store(0, 0x40, sim.now()));
}

TEST_F(L2CacheTest, SetBandwidthShareReachesEveryBank)
{
    l2->setBandwidthShare(0, 0.9);
    l2->setBandwidthShare(1, 0.1);
    for (unsigned b = 0; b < l2->numBanks(); ++b) {
        auto &arb = dynamic_cast<VpcArbiter &>(
            l2->bank(b).dataArray().arbiter());
        EXPECT_DOUBLE_EQ(arb.share(0), 0.9);
        EXPECT_DOUBLE_EQ(arb.share(1), 0.1);
    }
}

TEST_F(L2CacheTest, UtilizationAggregatesAcrossBanks)
{
    l2->load(0, 0x0, sim.now());
    runToIdle();
    // One miss on bank 0 only: mean tag busy = (bank0 + 0) / 2.
    EXPECT_GT(l2->tagBusyMean(), 0.0);
    EXPECT_EQ(l2->bank(1).tagArray().util().busyCycles(), 0u);
    EXPECT_DOUBLE_EQ(
        l2->tagBusyMean(),
        static_cast<double>(
            l2->bank(0).tagArray().util().busyCycles()) /
            2.0);
}

TEST_F(L2CacheTest, QuiescedOnlyWhenAllBanksIdle)
{
    EXPECT_TRUE(l2->quiesced());
    l2->load(0, 0x40, sim.now()); // bank 1
    sim.step();
    sim.step();
    sim.step();
    EXPECT_FALSE(l2->quiesced());
    runToIdle();
    EXPECT_TRUE(l2->quiesced());
}

} // namespace
} // namespace vpc
