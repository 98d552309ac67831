/**
 * @file
 * Unit tests for trace capture and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "workload/microbench.hh"
#include "workload/spec2000.hh"
#include "workload/trace.hh"

namespace vpc
{
namespace
{

class TraceTest : public ::testing::Test
{
  protected:
    TraceTest()
    {
        // ctest runs each case as its own process, possibly at the
        // same time: name the file after the test and the pid so no
        // two cases share it.
        path = testing::TempDir() + "vpc_trace_" +
               testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               "_" + std::to_string(::getpid()) + ".txt";
    }

    ~TraceTest() override { std::remove(path.c_str()); }

    void
    writeTrace(const std::string &contents)
    {
        std::ofstream out(path);
        out << contents;
    }

    std::string path;
};

TEST_F(TraceTest, ParsesAllOpKinds)
{
    writeTrace("# header comment\n"
               "L 1000\n"
               "S 1040  # trailing comment\n"
               "L 1080 d\n"
               "C 3\n"
               "C\n");
    TraceWorkload wl(path);
    EXPECT_EQ(wl.length(), 7u); // 3 mem ops + 3 computes + 1 compute

    MicroOp op = wl.next();
    EXPECT_EQ(op.kind, MicroOp::Kind::Load);
    EXPECT_EQ(op.addr, 0x1000u);
    op = wl.next();
    EXPECT_EQ(op.kind, MicroOp::Kind::Store);
    EXPECT_EQ(op.addr, 0x1040u);
    op = wl.next();
    EXPECT_EQ(op.kind, MicroOp::Kind::Load);
    EXPECT_TRUE(op.dependsOnPrevLoad);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(wl.next().kind, MicroOp::Kind::Compute);
}

TEST_F(TraceTest, LoopsAtEndOfTrace)
{
    writeTrace("L 40\nS 80\n");
    TraceWorkload wl(path);
    EXPECT_EQ(wl.next().addr, 0x40u);
    EXPECT_EQ(wl.next().addr, 0x80u);
    EXPECT_EQ(wl.next().addr, 0x40u); // wrapped
}

TEST_F(TraceTest, BaseAddressOffsetsEveryOp)
{
    writeTrace("L 100\n");
    TraceWorkload wl(path, 1ull << 32);
    EXPECT_EQ(wl.next().addr, (1ull << 32) + 0x100);
}

TEST_F(TraceTest, MalformedTracesAreFatal)
{
    writeTrace("X 1000\n");
    EXPECT_EXIT((TraceWorkload{path}), testing::ExitedWithCode(1),
                "unknown op");
    writeTrace("L zzz\n");
    EXPECT_EXIT((TraceWorkload{path}), testing::ExitedWithCode(1),
                "bad address");
    writeTrace("S 40 d\n");
    EXPECT_EXIT((TraceWorkload{path}), testing::ExitedWithCode(1),
                "dependence flag on a store");
    writeTrace("");
    EXPECT_EXIT((TraceWorkload{path}), testing::ExitedWithCode(1),
                "no operations");
    EXPECT_EXIT((TraceWorkload{"/nonexistent/file"}),
                testing::ExitedWithCode(1), "cannot open");
}

TEST_F(TraceTest, RecordThenReplayRoundTrips)
{
    // Record 200 ops of the Loads microbenchmark, then replay and
    // compare against a fresh generator.
    {
        TraceRecorder rec(std::make_unique<LoadsBenchmark>(0), path,
                          200);
        for (unsigned i = 0; i < 300; ++i)
            rec.next(); // past the cap: recording stops at 200
        EXPECT_EQ(rec.recorded(), 200u);
    }
    TraceWorkload replay(path);
    LoadsBenchmark fresh(0);
    for (unsigned i = 0; i < 200; ++i) {
        MicroOp a = replay.next();
        MicroOp b = fresh.next();
        ASSERT_EQ(a.kind, b.kind) << "op " << i;
        if (a.kind != MicroOp::Kind::Compute)
            ASSERT_EQ(a.addr, b.addr) << "op " << i;
    }
}

TEST_F(TraceTest, RecorderRoundTripsSyntheticWithDependences)
{
    {
        TraceRecorder rec(makeSpec2000("mcf", 0, 9), path, 500);
        for (unsigned i = 0; i < 500; ++i)
            rec.next();
    }
    TraceWorkload replay(path);
    auto fresh = makeSpec2000("mcf", 0, 9);
    for (unsigned i = 0; i < 500; ++i) {
        MicroOp a = replay.next();
        MicroOp b = fresh->next();
        ASSERT_EQ(a.kind, b.kind) << "op " << i;
        if (a.kind == MicroOp::Kind::Load) {
            ASSERT_EQ(a.addr, b.addr);
            ASSERT_EQ(a.dependsOnPrevLoad, b.dependsOnPrevLoad);
        }
    }
}

TEST_F(TraceTest, RecorderForwardsUnchanged)
{
    TraceRecorder rec(std::make_unique<StoresBenchmark>(0x4000),
                      path, 100);
    StoresBenchmark fresh(0x4000);
    for (unsigned i = 0; i < 50; ++i) {
        MicroOp a = rec.next();
        MicroOp b = fresh.next();
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.addr, b.addr);
    }
}

TEST_F(TraceTest, TraceNameFromBasename)
{
    writeTrace("L 0\n");
    TraceWorkload wl(path);
    EXPECT_EQ(wl.name().rfind("trace:", 0), 0u);
}

} // namespace
} // namespace vpc
