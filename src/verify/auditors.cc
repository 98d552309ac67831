#include "verify/auditors.hh"

#include <span>
#include <utility>

#include "sim/logging.hh"

namespace vpc
{

namespace
{

/**
 * Slack for floating-point virtual-time comparisons.  Virtual times
 * are sums of L/phi terms; after millions of grants the absolute
 * values are large and the representable step dwarfs 1e-9, so the
 * slack is relative where it matters.
 */
constexpr double kEps = 1e-6;

} // namespace

VpcArbiterAuditor::VpcArbiterAuditor(const VpcArbiter &arb,
                                     std::string label)
    : arb_(arb), label_(std::move(label)),
      lastRs(arb.numThreads(), 0.0), lastPending(arb.numThreads(), 0)
{}

void
VpcArbiterAuditor::check(Cycle now)
{
    const VpcArbiterOptions &opt = arb_.vpcOptions();
    double vclock = arb_.systemVirtualTime();
    if (!first && vclock + kEps < lastVclock) {
        vpc_panic("{}: system virtual time regressed ({} < {})",
                  name(), vclock, lastVclock);
    }
    for (ThreadId t = 0; t < arb_.numThreads(); ++t) {
        double rs = arb_.virtualTime(t);
        std::size_t pending = arb_.pendingCount(t);
        if (!first) {
            // Equations 5 and 6 only ever increase R.S_i.
            if (rs + kEps < lastRs[t]) {
                vpc_panic("{}: thread {} virtual time regressed "
                          "({} < {})", name(), t, rs, lastRs[t]);
            }
            // Equation 6: in wall-clock mode, an idle thread's R.S_i
            // is floored to the clock when it becomes busy, so after
            // an idle->pending transition R.S_i can never lie before
            // the last audit.
            if (!opt.virtualClock && opt.idleReset &&
                lastPending[t] == 0 && pending > 0 &&
                rs + kEps < static_cast<double>(lastCheck)) {
                vpc_panic("{}: thread {} became busy with virtual "
                          "time {} behind cycle {} (Equation 6 reset "
                          "missed)", name(), t, rs, lastCheck);
            }
            // Bounded lag: at every grant, EDF guarantees the served
            // request's finish tag is <= any backlogged thread's, so
            // the system clock (a start tag) trails every backlogged
            // thread's R.S_i by at most one maximal virtual service.
            // Only meaningful when idle threads are floored to this
            // same clock and no thread is held back (work-conserving).
            if (opt.virtualClock && opt.idleReset &&
                opt.workConserving && pending > 0 &&
                arb_.share(t) > 0.0) {
                double bound = rs + arb_.virtualServiceTime(t) *
                               arb_.writeMultiplier();
                if (vclock > bound + kEps) {
                    vpc_panic("{}: system virtual time {} ran {} "
                              "past backlogged thread {} (bound {})",
                              name(), vclock, vclock - bound, t,
                              bound);
                }
            }
        }
        lastRs[t] = rs;
        lastPending[t] = pending;
    }
    lastVclock = vclock;
    lastCheck = now;
    first = false;
}

ArbiterConservationAuditor::ArbiterConservationAuditor(
    const Arbiter &arb, std::string label)
    : arb_(arb), label_(std::move(label))
{}

void
ArbiterConservationAuditor::check(Cycle now)
{
    (void)now;
    for (ThreadId t = 0; t < arb_.numThreads(); ++t) {
        std::uint64_t in = arb_.enqueueCount(t);
        std::uint64_t out = arb_.grantCount(t) + arb_.pendingCount(t);
        if (in != out) {
            vpc_panic("{}: thread {} requests not conserved: {} "
                      "admitted != {} granted + {} pending",
                      name(), t, in, arb_.grantCount(t),
                      arb_.pendingCount(t));
        }
    }
}

CapacityAuditor::CapacityAuditor(const CacheArray &array,
                                 unsigned num_threads,
                                 std::string label,
                                 unsigned walk_period)
    : array_(array), numThreads(num_threads),
      label_(std::move(label)),
      walkPeriod(walk_period == 0 ? 1 : walk_period)
{}

void
CapacityAuditor::check(Cycle now)
{
    (void)now;
    std::uint64_t capacity = array_.numSets() * array_.numWays();
    std::uint64_t trackedTotal = 0;
    for (ThreadId t = 0; t < numThreads; ++t)
        trackedTotal += array_.trackedOccupancy(t);
    if (trackedTotal > capacity) {
        vpc_panic("{}: tracked occupancy {} exceeds capacity {}",
                  name(), trackedTotal, capacity);
    }
    if (++calls % walkPeriod != 0)
        return;
    // Ground truth: a full walk of the line ownership state.
    for (ThreadId t = 0; t < numThreads; ++t) {
        std::uint64_t actual = array_.occupancy(t);
        std::uint64_t tracked = array_.trackedOccupancy(t);
        if (actual != tracked) {
            vpc_panic("{}: thread {} occupancy bookkeeping drifted: "
                      "tracked {} != actual {}", name(), t, tracked,
                      actual);
        }
    }
}

CacheArray::VictimAudit
makeVpcVictimAudit(const CacheArray &array, std::string label)
{
    return [&array, label = std::move(label)](
               std::span<const CacheLine> set, ThreadId requester,
               unsigned way) {
        const CacheLine &victim = set[way];
        if (!victim.valid || victim.owner == requester)
            return; // empty way or condition 2: own LRU line
        if (victim.owner == kInvalidThread) {
            vpc_panic("victim-audit:{}: valid line without owner",
                      label);
        }
        // Condition 1: the dispossessed thread must hold more of
        // this set than its allocation, or the replacement just
        // broke its virtual private cache.
        unsigned held = 0;
        for (const CacheLine &line : set) {
            if (line.valid && line.owner == victim.owner)
                ++held;
        }
        if (held <= array.wayQuota(victim.owner)) {
            vpc_panic("victim-audit:{}: thread {} evicted thread "
                      "{}'s line while it held {} <= quota {} ways "
                      "of the set (Section 4.2 condition 1)",
                      label, requester, victim.owner, held,
                      array.wayQuota(victim.owner));
        }
    };
}

void
EventQueueAuditor::check(Cycle now)
{
    Cycle next = queue_.nextEventCycle();
    if (next < now) {
        vpc_panic("event-queue: stale event scheduled for cycle {} "
                  "still queued at cycle {}", next, now);
    }
}

} // namespace vpc
