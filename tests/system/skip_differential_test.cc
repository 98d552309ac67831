/**
 * @file
 * Differential tests of the quiescence-skipping kernel on the full
 * machine: for each figure-bench-style configuration, a skipping run
 * and a --no-skip (naive loop) run must produce bit-identical model
 * statistics and state dumps.  This is the proof obligation behind
 * every component's nextWork() hint — any hint that lets tick() skip
 * an observable cycle shows up here as a stats diff.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "system/options.hh"
#include "system/stats_report.hh"
#include "workload/microbench.hh"
#include "workload/spec2000.hh"

namespace vpc
{
namespace
{

constexpr Cycle kWarmup = 20'000;
constexpr Cycle kMeasure = 80'000;

struct RunDump
{
    std::string stats;
    std::string state;
    Cycle end;
    KernelStats kernel;
};

/** Build, run, and dump one system with the given kernel mode. */
RunDump
runOnce(SystemConfig cfg,
        std::vector<std::unique_ptr<Workload>> workloads, bool skip)
{
    cfg.kernelSkip = skip;
    CmpSystem sys(cfg, std::move(workloads));
    sys.run(kWarmup + kMeasure);
    RunDump d;
    std::ostringstream os;
    dumpStats(sys, os, sys.now());
    d.stats = os.str();
    d.state = sys.dumpState();
    d.end = sys.now();
    d.kernel = sys.kernelStats();
    return d;
}

std::vector<std::unique_ptr<Workload>>
specMix(const std::vector<std::string> &names)
{
    std::vector<std::unique_ptr<Workload>> wl;
    for (unsigned t = 0; t < names.size(); ++t)
        wl.push_back(makeSpec2000(names[t], (1ull << 40) * t, t + 1));
    return wl;
}

void
expectIdentical(const SystemConfig &cfg,
                const std::vector<std::string> &spec_names,
                const char *label)
{
    RunDump skip = runOnce(cfg, specMix(spec_names), true);
    RunDump naive = runOnce(cfg, specMix(spec_names), false);
    EXPECT_EQ(skip.end, naive.end) << label;
    EXPECT_EQ(skip.stats, naive.stats) << label;
    EXPECT_EQ(skip.state, naive.state) << label;
    // The naive run by definition skips nothing and ticks everything.
    EXPECT_EQ(naive.kernel.cyclesSkipped.value(), 0u) << label;
    EXPECT_EQ(skip.kernel.cyclesExecuted.value() +
                  skip.kernel.cyclesSkipped.value(),
              naive.kernel.cyclesExecuted.value())
        << label;
    // Identical model activity implies identical event counts: every
    // event is scheduled by model code, which ran identically.
    EXPECT_EQ(skip.kernel.eventsFired.value(),
              naive.kernel.eventsFired.value())
        << label;
}

TEST(SkipDifferential, HeadlineMixUnderVpc)
{
    expectIdentical(makeBaselineConfig(4, ArbiterPolicy::Vpc),
                    {"art", "vpr", "mesa", "crafty"}, "vpc-4");
}

TEST(SkipDifferential, HeadlineMixUnderFcfs)
{
    expectIdentical(makeBaselineConfig(4, ArbiterPolicy::Fcfs),
                    {"art", "mcf", "equake", "swim"}, "fcfs-4");
}

TEST(SkipDifferential, TwoThreadRowFcfs)
{
    expectIdentical(makeBaselineConfig(2, ArbiterPolicy::RowFcfs),
                    {"mesa", "mcf"}, "row-2");
}

TEST(SkipDifferential, UniprocessorPrivateMachine)
{
    // The experiment harness's target-IPC machine: a single thread on
    // a scaled-down private configuration (the fig benches' other
    // half).  Long memory stalls make this the deepest-skipping case.
    SystemConfig base = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    SystemConfig cfg = makePrivateConfig(base, 0.25, 0.25);
    expectIdentical(cfg, {"mcf"}, "private-1");
}

TEST(SkipDifferential, SharedMemoryChannel)
{
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    cfg.mem.sharedChannel = true;
    expectIdentical(cfg, {"art", "swim"}, "shared-mem-2");
}

TEST(SkipDifferential, PrefetchersEnabled)
{
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    cfg.l1.prefetch.enable = true;
    expectIdentical(cfg, {"swim", "mgrid"}, "prefetch-2");
}

TEST(SkipDifferential, UnequalShares)
{
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    cfg.shares = {QosShare{0.75, 0.75}, QosShare{0.25, 0.25}};
    cfg.validate();
    expectIdentical(cfg, {"art", "mcf"}, "shares-75-25");
}

TEST(SkipDifferential, MicrobenchLoadsStores)
{
    // Figure 8's workload pair exercises the store write-through path
    // and the store-gather buffers harder than any SPEC stand-in.
    SystemConfig cfg = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    auto build = [] {
        std::vector<std::unique_ptr<Workload>> wl;
        wl.push_back(std::make_unique<LoadsBenchmark>(0));
        wl.push_back(std::make_unique<StoresBenchmark>(1ull << 32));
        return wl;
    };
    SystemConfig skip_cfg = cfg;
    RunDump skip = runOnce(skip_cfg, build(), true);
    RunDump naive = runOnce(cfg, build(), false);
    EXPECT_EQ(skip.stats, naive.stats);
    EXPECT_EQ(skip.state, naive.state);
}

TEST(SkipDifferential, SkippingActuallySkips)
{
    // Sanity check that the machinery is engaged at all: a private
    // uniprocessor running mcf spends most cycles stalled on DRAM, so
    // a meaningful fraction must be fast-forwarded.
    SystemConfig base = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    SystemConfig cfg = makePrivateConfig(base, 0.25, 0.25);
    RunDump skip = runOnce(cfg, specMix({"mcf"}), true);
    EXPECT_GT(skip.kernel.cyclesSkipped.value(), 0u);
}

} // namespace
} // namespace vpc
