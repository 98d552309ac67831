/**
 * @file
 * Integration tests for one L2 bank: pipeline timing, store path,
 * misses/fills, and arbitration policy effects.
 */

#include <gtest/gtest.h>

#include <optional>

#include "cache/l2_bank.hh"
#include "sim/simulator.hh"

namespace vpc
{
namespace
{

class L2BankTest : public ::testing::Test
{
  protected:
    explicit L2BankTest(ArbiterPolicy policy = ArbiterPolicy::Fcfs)
    {
        cfg.numProcessors = 2;
        cfg.arbiterPolicy = policy;
        cfg.validate();
        mc = std::make_unique<MemoryController>(cfg.mem, 2, 64,
                                                sim.events());
        bank = std::make_unique<L2Bank>(cfg, 0, 1, 2, sim.events(),
                                        *mc, respLane);
        bank->setResponseHandler([this](ThreadId t, Addr la) {
            responses.push_back({t, la, sim.now()});
        });
        ticker.bank = bank.get();
        sim.addTicking(&ticker);
        sim.addTicking(mc.get());
        sim.addFusedChain(&respLane);
    }

    struct BankTicker : Ticking
    {
        L2Bank *bank = nullptr;
        void tick(Cycle now) override { bank->tick(now); }
    };

    struct Response
    {
        ThreadId thread;
        Addr lineAddr;
        Cycle at;
    };

    /** Run until the bank quiesces (or the limit hits). */
    void
    runToIdle(Cycle limit = 10'000)
    {
        Cycle end = sim.now() + limit;
        while (sim.now() < end) {
            sim.step();
            if (bank->quiesced())
                return;
        }
    }

    /** Load a line and drop the fill so later accesses hit. */
    void
    warmLine(ThreadId t, Addr line)
    {
        bank->loadArrive(t, line, sim.now());
        runToIdle();
        responses.clear();
    }

    void
    sendStore(ThreadId t, Addr line)
    {
        ASSERT_TRUE(bank->tryReserveStore(t));
        bank->storeArrive(t, line, sim.now());
    }

    SystemConfig cfg;
    Simulator sim;
    L2Bank::ResponseLane respLane{/*counted=*/true};
    std::unique_ptr<MemoryController> mc;
    std::unique_ptr<L2Bank> bank;
    BankTicker ticker;
    std::vector<Response> responses;
};

TEST_F(L2BankTest, LoadMissFetchesFromMemoryAndResponds)
{
    bank->loadArrive(0, 0x4000, 0);
    runToIdle();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].thread, 0u);
    EXPECT_EQ(responses[0].lineAddr, 0x4000u);
    EXPECT_EQ(bank->threadMissCount(0), 1u);
    EXPECT_EQ(mc->readCount(0), 1u);
}

TEST_F(L2BankTest, LoadHitPipelineTiming)
{
    warmLine(0, 0x4000);
    Cycle start = sim.now();
    // Align to an even (L2) cycle for exact timing.
    if (start & 1) {
        sim.step();
        start = sim.now();
    }
    bank->loadArrive(0, 0x4000, start);
    runToIdle();
    ASSERT_EQ(responses.size(), 1u);
    // tag(4) + data(8) + first bus beat(2) = 14 cycles at the bank.
    EXPECT_EQ(responses[0].at - start, 14u);
    EXPECT_EQ(bank->threadMissCount(0), 1u); // only the warming miss
}

TEST_F(L2BankTest, StoresGatherAndRetireAtHighWater)
{
    // Five distinct lines stay buffered (below the retire-at-6 mark).
    for (unsigned i = 0; i < 5; ++i)
        sendStore(0, 0x100000 + 0x40 * i);
    sim.run(200);
    EXPECT_EQ(bank->writeCount(0), 0u);
    EXPECT_EQ(bank->sgb(0).occupancy(), 5u);
    // The sixth line trips the high-water mark and draining begins.
    sendStore(0, 0x100000 + 0x40 * 5);
    runToIdle(50'000);
    EXPECT_GT(bank->writeCount(0), 0u);
}

TEST_F(L2BankTest, LoadConflictFlushesBufferedStore)
{
    warmLine(0, 0x8000);
    sendStore(0, 0x8000);
    sim.run(50);
    EXPECT_EQ(bank->writeCount(0), 0u); // gathered, idle
    // A load to the same line forces the store (partial flush) ahead
    // of it.
    bank->loadArrive(0, 0x8000, sim.now());
    runToIdle(100'000);
    EXPECT_EQ(bank->writeCount(0), 1u);
    ASSERT_EQ(responses.size(), 1u);
}

TEST_F(L2BankTest, WriteAllocateOnStoreMiss)
{
    // Six distinct lines trip the retire-at-6 policy; the FIFO head
    // (0x20000) is drained first and write-allocates.
    sendStore(0, 0x20000);
    for (unsigned i = 1; i < 6; ++i)
        sendStore(0, 0x20000 + 0x1000 * i);
    runToIdle(100'000);
    EXPECT_GE(bank->threadMissCount(0), 1u);
    EXPECT_GE(mc->readCount(0), 1u);
    std::uint64_t misses = bank->threadMissCount(0);
    // A later load to the allocated line hits (no new miss).
    responses.clear();
    bank->loadArrive(0, 0x20000, sim.now());
    runToIdle();
    EXPECT_EQ(bank->threadMissCount(0), misses);
    ASSERT_EQ(responses.size(), 1u);
}

TEST_F(L2BankTest, DirtyEvictionWritesBack)
{
    // Make a line dirty, then displace it with enough conflicting
    // fills to exhaust the set's ways (32-way: 33 distinct lines in
    // one set).
    Addr set_stride = cfg.l2.setsPerBank(1) * cfg.l2.lineBytes;
    sendStore(0, 0x0);
    for (unsigned i = 0; i < 6; ++i)
        sendStore(0, 0x40 * (1 + i)); // trip high water, drain all
    runToIdle(100'000);
    for (unsigned i = 1; i <= cfg.l2.ways; ++i) {
        bank->loadArrive(0, set_stride * i, sim.now());
        runToIdle(100'000);
    }
    EXPECT_GE(mc->writeCount(0), 1u); // dirty line written back
}

TEST_F(L2BankTest, ResourceUtilizationAccounted)
{
    warmLine(0, 0x4000);
    auto tag_before = bank->tagArray().util().busyCycles();
    bank->loadArrive(0, 0x4000, sim.now());
    runToIdle();
    EXPECT_EQ(bank->tagArray().util().busyCycles() - tag_before, 4u);
}

TEST_F(L2BankTest, QuiescedReflectsState)
{
    EXPECT_TRUE(bank->quiesced());
    bank->loadArrive(0, 0x4000, 0);
    EXPECT_FALSE(bank->quiesced());
    runToIdle();
    EXPECT_TRUE(bank->quiesced());
}

TEST_F(L2BankTest, PerThreadStateMachinesAreIsolated)
{
    // Thread 0 floods its 8 state machines with misses; thread 1's
    // single load must still be admitted promptly.
    for (unsigned i = 0; i < 12; ++i)
        bank->loadArrive(0, 0x100000 + 0x40 * i, 0);
    bank->loadArrive(1, 0x4000, 0);
    runToIdle(200'000);
    std::optional<Cycle> t1_at;
    for (const Response &r : responses) {
        if (r.thread == 1)
            t1_at = r.at;
    }
    ASSERT_TRUE(t1_at.has_value());
}

TEST_F(L2BankTest, SameLineFromTwoThreadsIsFetchedOnce)
{
    // No workload shares lines across threads, so only this case
    // exercises the same-line check between threads: thread 1's load
    // waits until thread 0's miss has installed the line, then hits.
    bank->loadArrive(0, 0x4000, 0);
    bank->loadArrive(1, 0x4000, 0);
    runToIdle(100'000);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(bank->threadMissCount(0), 1u);
    EXPECT_EQ(bank->threadMissCount(1), 0u);
    EXPECT_EQ(mc->readCount(0), 1u);
    EXPECT_EQ(mc->readCount(1), 0u);
}

TEST_F(L2BankTest, PartialFlushWaitsForAFreeStateMachine)
{
    // Eight cold loads take all of thread 0's state machines.
    for (unsigned i = 0; i < cfg.l2.stateMachinesPerThread; ++i)
        bank->loadArrive(0, 0x100000 + 0x40 * i, 0);
    sim.run(20);
    ASSERT_EQ(bank->readCount(0), cfg.l2.stateMachinesPerThread);
    ASSERT_TRUE(responses.empty());

    // A load that hits a buffered store arrives while the thread
    // cannot admit: the store must still retire ahead of it once a
    // state machine frees.
    const Addr x = 0x8000;
    sendStore(0, x);
    bank->loadArrive(0, x, sim.now());
    runToIdle(100'000);
    EXPECT_EQ(bank->writeCount(0), 1u);
    ASSERT_EQ(responses.size(), cfg.l2.stateMachinesPerThread + 1);
    EXPECT_EQ(responses.back().lineAddr, x);
}

class L2BankRowTest : public L2BankTest
{
  protected:
    L2BankRowTest() : L2BankTest(ArbiterPolicy::RowFcfs) {}
};

TEST_F(L2BankRowTest, ContinuousLoadsStarveStores)
{
    // Warm thread 0's load lines so they hit (continuous read stream)
    // and thread 1's store lines so its stores are L2 hits that need
    // the 16-cycle data-array read-modify-write (cold stores would
    // miss, and their memory *fills* are read-class accesses that RoW
    // happily services).
    for (unsigned i = 0; i < 64; ++i)
        warmLine(0, 0x40000 + 0x40 * i);
    for (unsigned i = 0; i < 64; ++i)
        warmLine(1, 0x200000 + 0x40 * i);

    // Build a read backlog first: loads arrive at twice the data
    // array's service rate, so once the backlog exists a read is
    // always pending whenever the array frees.
    unsigned next = 0;
    auto pump_loads = [&](unsigned rounds) {
        for (unsigned round = 0; round < rounds; ++round) {
            if (round % 2 == 0) {
                bank->loadArrive(0, 0x40000 + 0x40 * (next++ % 64),
                                 sim.now());
            }
            sim.step();
        }
    };
    pump_loads(400);

    // Thread 1 continuously pushes stores (its SGB stays at the
    // high-water mark, always wanting to retire).  Under RoW the read
    // stream starves them: over 4000 cycles a fair half share of the
    // data array would service ~125 stores (16 cycles each); the
    // store thread must get almost none of that.
    unsigned store_line = 0;
    auto pump_both = [&](unsigned rounds) {
        for (unsigned round = 0; round < rounds; ++round) {
            if (bank->tryReserveStore(1)) {
                bank->storeArrive(1,
                                  0x200000 + 0x40 * (store_line++ %
                                                     64),
                                  sim.now());
            }
            if (round % 2 == 0) {
                bank->loadArrive(0, 0x40000 + 0x40 * (next++ % 64),
                                 sim.now());
            }
            sim.step();
        }
    };
    std::uint64_t grants_before =
        bank->dataArray().arbiter().grantCount(1);
    pump_both(4000);
    EXPECT_LE(bank->dataArray().arbiter().grantCount(1) -
                  grants_before,
              6u);
    // The stores are backlogged, not absent.
    EXPECT_GT(bank->dataArray().arbiter().pendingCount(1) +
                  bank->tagArray().arbiter().pendingCount(1) +
                  bank->sgb(1).occupancy(),
              0u);
}

} // namespace
} // namespace vpc
