/**
 * @file
 * Concrete invariant auditors for the arbiters, the capacity manager
 * and the event queue.
 *
 * Each auditor encodes an invariant derived from the paper:
 *
 *  - VpcArbiterAuditor: the fair-queuing registers of Section 4.1.
 *    R.S_i only moves forward (Equations 4/5 add positive virtual
 *    service), the system virtual clock only moves forward, an idle
 *    thread that becomes busy has had its R.S_i floored per Equation
 *    6, and in virtual-clock mode the clock never runs ahead of a
 *    backlogged thread by more than one maximal virtual service time
 *    (the EDF grant inequality F_j <= F_i).
 *
 *  - ArbiterConservationAuditor: requests are conserved -- every
 *    admission is either still pending or was granted, for every
 *    thread, on every arbiter.
 *
 *  - CapacityAuditor: the incrementally tracked per-thread line
 *    counts match a ground-truth walk of the array, and the total
 *    never exceeds the array's capacity.  makeVpcVictimAudit() checks
 *    each replacement decision against conditions 1 and 2 of Section
 *    4.2: a victim taken from another thread must come from a thread
 *    holding more than its allocation of the set.
 *
 *  - EventQueueAuditor: no event sits in the queue scheduled before
 *    the present (it would never fire).
 */

#ifndef VPC_VERIFY_AUDITORS_HH
#define VPC_VERIFY_AUDITORS_HH

#include <string>
#include <vector>

#include "arbiter/arbiter.hh"
#include "arbiter/vpc_arbiter.hh"
#include "cache/cache_array.hh"
#include "sim/event_queue.hh"
#include "verify/invariant.hh"

namespace vpc
{

/** Audits the VPC arbiter's virtual-time registers (Section 4.1). */
class VpcArbiterAuditor : public InvariantChecker
{
  public:
    /**
     * @param arb the arbiter to watch (must outlive the auditor)
     * @param label resource name for diagnostics, e.g. "bank0.tag"
     */
    VpcArbiterAuditor(const VpcArbiter &arb, std::string label);

    void check(Cycle now) override;
    std::string name() const override { return "vpc-vtime:" + label_; }

  private:
    const VpcArbiter &arb_;
    std::string label_;
    std::vector<double> lastRs;
    std::vector<std::size_t> lastPending;
    double lastVclock = 0.0;
    Cycle lastCheck = 0;
    bool first = true;
};

/** Audits request conservation on any arbiter. */
class ArbiterConservationAuditor : public InvariantChecker
{
  public:
    ArbiterConservationAuditor(const Arbiter &arb, std::string label);

    void check(Cycle now) override;
    std::string name() const override
    {
        return "conservation:" + label_;
    }

  private:
    const Arbiter &arb_;
    std::string label_;
};

/** Audits per-thread occupancy bookkeeping of one cache array. */
class CapacityAuditor : public InvariantChecker
{
  public:
    /**
     * @param array the array to watch
     * @param num_threads threads whose occupancy is tracked
     * @param label array name for diagnostics, e.g. "bank0"
     * @param walk_period do the O(lines) ground-truth walk on every
     *        walk_period-th check only; the cheap capacity-bound
     *        check runs every time
     */
    CapacityAuditor(const CacheArray &array, unsigned num_threads,
                    std::string label, unsigned walk_period = 16);

    void check(Cycle now) override;
    std::string name() const override { return "capacity:" + label_; }

  private:
    const CacheArray &array_;
    unsigned numThreads;
    std::string label_;
    unsigned walkPeriod;
    std::uint64_t calls = 0;
};

/**
 * Build a victim-audit tap enforcing Section 4.2's replacement
 * conditions for a Vpc-policy @p array; install it on the same array
 * via setVictimAudit().  Panics when a victim belonging to another
 * thread is taken from a thread at or under its way quota of the set
 * (condition 1), or when a valid victim belongs to no thread.
 *
 * @param array the array whose way quotas apply (must neither move
 *        nor die before the returned callable)
 * @param label array name for diagnostics
 */
CacheArray::VictimAudit makeVpcVictimAudit(const CacheArray &array,
                                           std::string label);

/** Audits that the event queue holds no event older than "now". */
class EventQueueAuditor : public InvariantChecker
{
  public:
    explicit EventQueueAuditor(const EventQueue &q) : queue_(q) {}

    void check(Cycle now) override;
    std::string name() const override { return "event-queue"; }

  private:
    const EventQueue &queue_;
};

} // namespace vpc

#endif // VPC_VERIFY_AUDITORS_HH
