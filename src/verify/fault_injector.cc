#include "verify/fault_injector.hh"

#include <utility>

#include "sim/logging.hh"

namespace vpc
{

FaultInjector::FaultInjector(double rate, std::uint64_t seed)
    : rate_(rate), rng(seed, /*stream=*/0x5eedf417)
{
    if (!(0.0 <= rate_ && rate_ <= 1.0)) // NaN fails too
        vpc_fatal("fault rate {} out of [0, 1]", rate_);
}

void
FaultInjector::addFault(std::string name, FaultFn fn)
{
    if (!fn)
        vpc_panic("fault '{}' registered without callback", name);
    faults.push_back(Fault{std::move(name), std::move(fn)});
}

void
FaultInjector::maybeInject(Cycle now)
{
    if (faults.empty() || !rng.chance(rate_))
        return;
    Fault &f = faults[rng.below(
        static_cast<std::uint32_t>(faults.size()))];
    if (f.fn()) {
        ++injected;
        vpc_warn("fault injected: {} at cycle {}", f.name, now);
    }
}

} // namespace vpc
