/**
 * @file
 * The cycle-attribution profiler (--profile) on a full system: it must
 * never change a model statistic or a kernel counter, and it must bill
 * every executed event and tick to a named component.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "system/stats_report.hh"
#include "workload/spec2000.hh"

namespace vpc
{
namespace
{

constexpr Cycle kRunCycles = 50'000;

std::vector<std::unique_ptr<Workload>>
headlineMix()
{
    const char *const names[] = {"art", "vpr", "mesa", "crafty"};
    std::vector<std::unique_ptr<Workload>> wl;
    for (unsigned t = 0; t < 4; ++t)
        wl.push_back(makeSpec2000(names[t], (1ull << 40) * t, t + 1));
    return wl;
}

struct RunDump
{
    std::string stats;
    std::string state;
    Cycle end = 0;
    KernelStats kernel;
};

RunDump
runOnce(const SystemConfig &cfg)
{
    CmpSystem sys(cfg, headlineMix());
    sys.run(kRunCycles);
    RunDump d;
    std::ostringstream os;
    dumpStats(sys, os, sys.now());
    d.stats = os.str();
    d.state = sys.dumpState();
    d.end = sys.now();
    d.kernel = sys.kernelStats();
    return d;
}

TEST(Profiler, IsObserveOnly)
{
    // The profiler only reads the host clock and bumps host-side
    // counters, so a profiled run must match an unprofiled one in
    // every model statistic, the machine state and the kernel's work.
    SystemConfig cfg = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    RunDump plain = runOnce(cfg);
    cfg.profile = true;
    RunDump prof = runOnce(cfg);
    EXPECT_EQ(prof.end, plain.end);
    EXPECT_EQ(prof.stats, plain.stats);
    EXPECT_EQ(prof.state, plain.state);
    EXPECT_EQ(prof.kernel.eventsFired.value(),
              plain.kernel.eventsFired.value());
    EXPECT_EQ(prof.kernel.ticksExecuted.value(),
              plain.kernel.ticksExecuted.value());
    EXPECT_EQ(prof.kernel.cyclesExecuted.value(),
              plain.kernel.cyclesExecuted.value());
}

TEST(Profiler, AccountsAllEventTime)
{
    // Attribution completeness: every executed event is owned by a
    // named component, so the unattributed account stays empty and
    // the event and tick counts reconcile with the kernel counters.
    SystemConfig cfg = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    cfg.profile = true;
    CmpSystem sys(cfg, headlineMix());
    sys.run(kRunCycles);
    ASSERT_TRUE(sys.profiling());
    Profiler prof = sys.mergedProfile();
    // Account 0 is "(unattributed)"; nothing may land there.
    EXPECT_EQ(prof.entries().front().eventCount, 0u);
    EXPECT_EQ(prof.attributedEventNs(), prof.totalEventNs());
    std::uint64_t events = 0, ticks = 0;
    for (const Profiler::Entry &e : prof.entries()) {
        events += e.eventCount;
        ticks += e.tickCount;
    }
    EXPECT_EQ(events, sys.kernelStats().eventsFired.value());
    EXPECT_EQ(ticks, sys.kernelStats().ticksExecuted.value());
}

} // namespace
} // namespace vpc
