/**
 * @file
 * Unit tests for the vpcsim command-line option parser.
 */

#include <gtest/gtest.h>

#include "system/options.hh"

namespace vpc
{
namespace
{

std::optional<SimOptions>
parse(std::initializer_list<const char *> args)
{
    std::vector<std::string> v(args.begin(), args.end());
    std::string err;
    return parseSimOptions(v, err);
}

TEST(SimOptions, MinimalInvocation)
{
    auto o = parse({"--workload=loads"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->config.numProcessors, 1u);
    EXPECT_EQ(o->workloadSpecs[0], "loads");
    EXPECT_DOUBLE_EQ(o->config.shares[0].phi, 1.0);
    EXPECT_EQ(o->config.arbiterPolicy, ArbiterPolicy::Fcfs);
}

TEST(SimOptions, FullInvocation)
{
    auto o = parse({"--workload=loads,stores,mcf,idle",
                    "--arbiter=vpc", "--capacity=occupancy",
                    "--phi=0.4,0.3,0.2,0.1", "--beta=0.25,0.25,0.25,"
                    "0.25", "--banks=4", "--warmup=1000",
                    "--cycles=2000", "--seed=9", "--prefetch",
                    "--shared-memory", "--stats"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->config.numProcessors, 4u);
    EXPECT_EQ(o->config.arbiterPolicy, ArbiterPolicy::Vpc);
    EXPECT_EQ(o->config.capacityPolicy,
              CapacityPolicy::GlobalOccupancy);
    EXPECT_DOUBLE_EQ(o->config.shares[2].phi, 0.2);
    EXPECT_EQ(o->config.l2.banks, 4u);
    EXPECT_EQ(o->warmup, 1000u);
    EXPECT_EQ(o->measure, 2000u);
    EXPECT_EQ(o->seed, 9u);
    EXPECT_TRUE(o->config.l1.prefetch.enable);
    EXPECT_TRUE(o->config.mem.sharedChannel);
    // VPC cache arbiters imply the FQ memory scheduler.
    EXPECT_EQ(o->config.mem.schedulerPolicy, ArbiterPolicy::Vpc);
    EXPECT_TRUE(o->dumpStats);
}

TEST(SimOptions, DefaultSharesAreEqual)
{
    auto o = parse({"--workload=loads,stores,idle,idle"});
    ASSERT_TRUE(o);
    for (const QosShare &s : o->config.shares) {
        EXPECT_DOUBLE_EQ(s.phi, 0.25);
        EXPECT_DOUBLE_EQ(s.beta, 0.25);
    }
}

TEST(SimOptions, ErrorsAreReported)
{
    std::string err;
    std::vector<std::string> v;

    v = {"--workload=loads", "--arbiter=bogus"};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("unknown arbiter"), std::string::npos);

    v = {"--workload=loads", "--arbiter=rr"}; // a retired policy
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("unknown arbiter 'rr'"), std::string::npos);

    v = {"--workload=loads", "--phi=0.5,0.5"};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("entries"), std::string::npos);

    v = {"--workload=loads,stores", "--phi=0.9,0.9"};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("over-allocated"), std::string::npos);

    v = {"--workload=loads", "--cycles=xyz"};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("bad integer"), std::string::npos);

    v = {"--nonsense"};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("unknown option"), std::string::npos);

    v = {};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("--workload"), std::string::npos);
}

TEST(SimOptions, KernelThreadsOptionIsGone)
{
    // The simulator has one serial kernel; --threads no longer names a
    // kernel worker count and is rejected like any unknown flag.
    std::string err;
    std::vector<std::string> v = {"--workload=loads,stores",
                                  "--threads=2"};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("unknown option '--threads=2'"),
              std::string::npos);
    EXPECT_EQ(simUsage().find("--threads"), std::string::npos);
}

TEST(SimOptions, HelpProducesUsage)
{
    std::string err;
    std::vector<std::string> v = {"--help"};
    EXPECT_FALSE(parseSimOptions(v, err));
    EXPECT_NE(err.find("vpcsim"), std::string::npos);
    EXPECT_NE(err.find("--arbiter"), std::string::npos);
}

TEST(SimOptions, WorkloadFactorySpecs)
{
    std::string err;
    EXPECT_NE(makeWorkloadFromSpec("loads", 0, 1, err), nullptr);
    EXPECT_NE(makeWorkloadFromSpec("stores", 0, 1, err), nullptr);
    EXPECT_NE(makeWorkloadFromSpec("idle", 0, 1, err), nullptr);
    auto spec = makeWorkloadFromSpec("swim", 0, 1, err);
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(spec->name(), "swim");
    EXPECT_EQ(makeWorkloadFromSpec("nosuch", 0, 1, err), nullptr);
    EXPECT_NE(err.find("unknown workload"), std::string::npos);
}

TEST(SimOptions, BuildWorkloadsMatchesSpecs)
{
    auto o = parse({"--workload=loads,gzip"});
    ASSERT_TRUE(o);
    auto wl = o->buildWorkloads();
    ASSERT_EQ(wl.size(), 2u);
    EXPECT_EQ(wl[0]->name(), "Loads");
    EXPECT_EQ(wl[1]->name(), "gzip");
}

} // namespace
} // namespace vpc
