#include "arbiter/arbiter_factory.hh"

#include "arbiter/fcfs_arbiter.hh"
#include "arbiter/row_fcfs_arbiter.hh"
#include "sim/logging.hh"

namespace vpc
{

std::unique_ptr<Arbiter>
makeArbiter(ArbiterPolicy policy, unsigned num_threads,
            Cycle read_latency, unsigned write_multiplier,
            const std::vector<double> &shares,
            const VpcArbiterOptions &opts)
{
    switch (policy) {
      case ArbiterPolicy::Fcfs:
        return std::make_unique<FcfsArbiter>(num_threads);
      case ArbiterPolicy::RowFcfs:
        return std::make_unique<RowFcfsArbiter>(num_threads);
      case ArbiterPolicy::Vpc:
        return std::make_unique<VpcArbiter>(num_threads, read_latency,
                                            write_multiplier, shares,
                                            opts);
    }
    vpc_panic("unknown arbiter policy {}", static_cast<int>(policy));
}

const char *
arbiterPolicyName(ArbiterPolicy policy)
{
    switch (policy) {
      case ArbiterPolicy::Fcfs: return "FCFS";
      case ArbiterPolicy::RowFcfs: return "RoW-FCFS";
      case ArbiterPolicy::Vpc: return "VPC";
    }
    return "?";
}

} // namespace vpc
