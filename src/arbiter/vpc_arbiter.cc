#include "arbiter/vpc_arbiter.hh"

#include <bit>
#include <limits>

#include "arbiter/row_scan.hh"

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "sim/vec.hh"

namespace vpc
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

VpcArbiter::VpcArbiter(unsigned num_threads, Cycle service_latency,
                       unsigned write_multiplier,
                       const std::vector<double> &shares,
                       const VpcArbiterOptions &opts)
    : Arbiter(num_threads), buffers_(num_threads),
      phi_(num_threads, 0.0), rl_(num_threads, 0.0),
      rs_(num_threads, 0.0), candIdx_(num_threads, 0),
      latency(service_latency), writeMult(write_multiplier),
      options(opts)
{
    if (shares.size() != num_threads)
        vpc_fatal("VpcArbiter: {} shares for {} threads",
                  shares.size(), num_threads);
    if (latency == 0)
        vpc_fatal("VpcArbiter: resource latency must be > 0");
    if (writeMult == 0)
        vpc_fatal("VpcArbiter: write multiplier must be > 0");
    if (num_threads > kMaxThreads)
        vpc_fatal("VpcArbiter: {} threads exceeds the {}-thread "
                  "active-mask limit", num_threads, kMaxThreads);
    double sum = 0.0;
    for (unsigned t = 0; t < num_threads; ++t) {
        sum += shares[t];
        setShare(t, shares[t]);
    }
    if (sum > 1.0 + 1e-9)
        vpc_fatal("VpcArbiter: resource over-allocated, sum(phi)={}",
                  sum);
}

void
VpcArbiter::setShare(ThreadId t, double phi)
{
    if (!(0.0 <= phi && phi <= 1.0)) // NaN fails too
        vpc_fatal("VpcArbiter: share {} out of [0,1]", phi);
    phi_.at(t) = phi;
    // R.L_i only needs recomputation when phi changes (Section 4.1.1).
    rl_.at(t) = phi > 0.0 ? static_cast<double>(latency) / phi : kInf;
}

bool
VpcArbiter::faultDropOldest(ThreadId t)
{
    SmallRing<ArbRequest> &buf = buffers_.at(t);
    if (buf.empty())
        return false;
    buf.pop_front();
    invalidateCandidate(t);
    if (buf.empty())
        activeMask &= ~(1ull << t);
    --total;
    return true;
}

void
VpcArbiter::doEnqueue(const ArbRequest &req, Cycle now)
{
    if (req.thread >= numThreads())
        vpc_panic("VPC enqueue from invalid thread {}", req.thread);
    SmallRing<ArbRequest> &buf = buffers_[req.thread];
    // Equation 6: an idle thread's virtual resource cannot be available
    // before "now"; without this reset the thread would bank unbounded
    // credit while idle and later starve others while repaying none.
    // In virtual-clock mode "now" is the served-start-tag clock, which
    // stays meaningful when the resource cannot deliver its nominal
    // bandwidth (see VpcArbiterOptions::virtualClock).
    double reset_floor = options.virtualClock
        ? vclock : static_cast<double>(now);
    if (options.idleReset && buf.empty() &&
        rs_[req.thread] < reset_floor) {
        rs_[req.thread] = reset_floor;
    }
    buf.push_back(req);
    invalidateCandidate(req.thread);
    activeMask |= 1ull << req.thread;
    ++total;
}

std::size_t
VpcArbiter::candidateIndex(ThreadId t) const
{
    if (!options.intraThreadRow)
        return 0;
    std::uint64_t bit = std::uint64_t{1} << t;
    if (candValid_ & bit)
        return candIdx_[t];
    // Intra-thread reordering (Section 4.1.1): demand reads first,
    // then prefetch reads, then the oldest request -- a read may not
    // bypass an older same-line write (dependence).  One O(n) pass;
    // see row_scan.hh for the equivalence argument.
    std::size_t idx = rowCandidateIndex(buffers_[t], rowScratch);
    candIdx_[t] = static_cast<std::uint32_t>(idx);
    candValid_ |= bit;
    return idx;
}

double
VpcArbiter::nextVirtualFinish(ThreadId t) const
{
    const SmallRing<ArbRequest> &buf = buffers_.at(t);
    if (buf.empty())
        return kInf;
    std::size_t idx = candidateIndex(t);
    return rs_[t] + virtualService(t, buf[idx]);
}

std::optional<ArbRequest>
VpcArbiter::select(Cycle now)
{
    if (total == 0)
        return std::nullopt;

    // Earliest virtual finish time first (EDF); ties broken by global
    // arrival order so zero-share threads are FCFS among themselves.
    //
    // Visit backlogged threads only (ascending t, as before, so the
    // (finish, seq) tie-break is unchanged).  Candidate indices are
    // cached per thread, so a thread whose buffer did not change since
    // the last select costs one masked load, not a RoW rescan.  The
    // gather pass packs each eligible thread's (finish, seq) into
    // flat arrays so the argmin itself runs vectorized.
    double fin[kMaxThreads];
    SeqNum seqs[kMaxThreads];
    ThreadId tids[kMaxThreads];
    std::uint32_t idxs[kMaxThreads];
    unsigned cand = 0;
    for (std::uint64_t m = activeMask; m != 0; m &= m - 1) {
        auto t = static_cast<ThreadId>(std::countr_zero(m));
        if (!options.workConserving &&
            rs_[t] > static_cast<double>(now)) {
            // Non-work-conserving ablation: the thread's virtual start
            // time has not arrived yet; it is ineligible.
            continue;
        }
        std::size_t idx = candidateIndex(t);
        const ArbRequest &req = buffers_[t][idx];
        fin[cand] = rs_[t] + virtualService(t, req);
        seqs[cand] = req.seq;
        tids[cand] = t;
        idxs[cand] = static_cast<std::uint32_t>(idx);
        ++cand;
    }
    if (cand == 0)
        return std::nullopt;
    unsigned k = vec::argminF64Seq(fin, seqs, cand);
    ThreadId best_t = tids[k];
    std::size_t best_idx = idxs[k];
    double best_f = fin[k];

    SmallRing<ArbRequest> &buf = buffers_[best_t];
    ArbRequest req = buf[best_idx];
    buf.erase_at(best_idx);
    invalidateCandidate(best_t);
    if (buf.empty())
        activeMask &= ~(1ull << best_t);
    --total;
    // System virtual time = start tag of the request entering
    // service (used by virtual-clock idle resets).
    if (rs_[best_t] > vclock)
        vclock = rs_[best_t];
    // Equation 5: advance the virtual resource past this service.
    rs_[best_t] = best_f;
    VPC_DPRINTF(Arbiter, "[{}] grant t{} seq {} F={:.1f} rs->{:.1f}",
                now, best_t, req.seq, best_f, rs_[best_t]);
    recordGrant(req, now);
    return req;
}

bool
VpcArbiter::hasPending() const
{
    return total != 0;
}

std::size_t
VpcArbiter::pendingCount() const
{
    return total;
}

std::size_t
VpcArbiter::pendingCount(ThreadId t) const
{
    return buffers_.at(t).size();
}

} // namespace vpc
