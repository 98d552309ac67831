/**
 * @file
 * Cooperative job cancellation for the simulation kernel.
 *
 * The sweep daemon (src/service/) must bound the wall-clock time of
 * every job it runs, yet a simulation is a deterministic closed loop
 * with no natural preemption point.  The contract here keeps both
 * properties:
 *
 *  - a cancel token is a plain `std::atomic<bool>` owned by the
 *    supervisor (the daemon's deadline monitor).  The owner sets it;
 *    it never clears it mid-run;
 *  - the kernel (Simulator::run) and the wall-deadline Watchdog poll
 *    the token at loop granularity and
 *    unwind by throwing JobCancelled, which is catchable — unlike
 *    vpc_panic — because an over-deadline job is an operational event,
 *    not a simulator bug;
 *  - polling is observe-only: a run that completes without the token
 *    being set executes the exact same cycles, events and counters as
 *    a run with no token installed (a null-pointer branch per loop
 *    iteration is the whole cost), so cancellation support never
 *    perturbs cached results.
 *
 * A cancelled CmpSystem is torn mid-cycle and must be discarded; the
 * daemon rebuilds from the journaled job on retry.
 */

#ifndef VPC_SIM_CANCEL_HH
#define VPC_SIM_CANCEL_HH

#include <atomic>
#include <stdexcept>
#include <string>

namespace vpc
{

/** Thrown by the kernel when the installed cancel token is set. */
class JobCancelled : public std::runtime_error
{
  public:
    explicit JobCancelled(const std::string &why)
        : std::runtime_error(why)
    {}
};

/** Thrown by the Watchdog when a job's wall-clock deadline expires. */
class DeadlineExceeded : public JobCancelled
{
  public:
    explicit DeadlineExceeded(const std::string &why)
        : JobCancelled(why)
    {}
};

/** A supervisor-owned cancellation flag; see the file comment. */
using CancelToken = std::atomic<bool>;

} // namespace vpc

#endif // VPC_SIM_CANCEL_HH
