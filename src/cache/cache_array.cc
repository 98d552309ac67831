#include "cache/cache_array.hh"

#include <bit>

#include "sim/logging.hh"

namespace vpc
{

CacheArray::CacheArray(std::uint64_t sets, unsigned ways,
                       unsigned line_bytes, CapacityPolicy policy,
                       const std::vector<double> &betas,
                       unsigned index_shift)
    : sets_(sets), ways_(ways), lineBytes_(line_bytes),
      indexShift_(index_shift), policy_(policy)
{
    if (!isPowerOf2(sets_) || !isPowerOf2(lineBytes_))
        vpc_fatal("cache geometry must use power-of-two sets ({}) and "
                  "line size ({})", sets_, lineBytes_);
    if (ways_ == 0)
        vpc_fatal("cache must have at least one way");
    if (ways_ > 64)
        vpc_fatal("cache associativity {} exceeds 64 (way state is "
                  "packed into one mask word per set)", ways_);
    lineShift_ = log2i(lineBytes_);
    setShift_ = log2i(sets_);
    if (policy_ != CapacityPolicy::Lru) {
        double sum = 0.0;
        for (double beta : betas) {
            if (!(0.0 <= beta && beta <= 1.0)) // NaN fails too
                vpc_fatal("capacity share {} out of [0,1]", beta);
            sum += beta;
            quotas_.push_back(quotaFor(beta));
        }
        if (sum > 1.0 + 1e-9)
            vpc_fatal("cache capacity over-allocated: sum(beta)={}",
                      sum);
    }
    // The tag and stamp planes carry kWidth64 - 1 words of tail
    // padding so the vectorized scans can load whole vectors from any
    // set base without overreading the allocation (vec.hh's "padded"
    // contract).  The padding is never addressed by a (set, way) pair.
    tags_.assign(sets_ * ways_ + vec::kWidth64 - 1, 0);
    stamps_.assign(sets_ * ways_ + vec::kWidth64 - 1, 0);
    owners_.assign(sets_ * ways_, kInvalidThread);
    validMask_.assign(sets_, 0);
    dirtyMask_.assign(sets_, 0);
}

void
CacheArray::ensureMaskThread(ThreadId t)
{
    if (t == kInvalidThread)
        return;
    while (maskThreads_ <= t) {
        ownerWays_.insert(ownerWays_.end(), sets_, 0);
        ++maskThreads_;
    }
}

void
CacheArray::bumpOcc(ThreadId t, std::int64_t delta)
{
    if (t == kInvalidThread)
        return;
    if (t >= occTracked_.size())
        occTracked_.resize(t + 1, 0);
    if (delta < 0 && occTracked_[t] == 0)
        vpc_panic("tracked occupancy for thread {} underflowed", t);
    occTracked_[t] += static_cast<std::uint64_t>(delta);
}

std::uint64_t
CacheArray::quotaFor(double beta) const
{
    const std::uint64_t unit =
        policy_ == CapacityPolicy::GlobalOccupancy ? sets_ * ways_
                                                   : ways_;
    return static_cast<std::uint64_t>(
        beta * static_cast<double>(unit) + 1e-9);
}

void
CacheArray::setShare(ThreadId t, double beta)
{
    if (t >= quotas_.size())
        vpc_panic("capacity share update for thread {} of an array "
                  "with {} shares", t, quotas_.size());
    quotas_[t] = quotaFor(beta);
}

bool
CacheArray::faultFlipOwner(ThreadId to)
{
    // Reassigns the real ownership state — owners_ *and* the way
    // masks, so the mask-based victim choice keeps agreeing with the
    // lines setLines() reports — while leaving the occTracked_
    // counters stale.  That is the injected inconsistency the
    // CapacityAuditor must catch.
    for (std::uint64_t s = 0; s < sets_; ++s) {
        for (std::uint64_t m = validMask_[s]; m != 0; m &= m - 1) {
            unsigned w = ctz64(m);
            std::uint64_t li = s * ways_ + w;
            if (owners_[li] == to)
                continue;
            ThreadId from = owners_[li];
            std::uint64_t bit = std::uint64_t{1} << w;
            if (from < maskThreads_)
                ownerWays_[from * sets_ + s] &= ~bit;
            ensureMaskThread(to);
            if (to != kInvalidThread)
                ownerWays_[to * sets_ + s] |= bit;
            owners_[li] = to;
            return true;
        }
    }
    return false;
}

std::span<const CacheLine>
CacheArray::setLines(std::uint64_t index) const
{
    lineScratch_.resize(ways_);
    const std::uint64_t base = index * ways_;
    std::uint64_t vm = validMask_[index], dm = dirtyMask_[index];
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = lineScratch_[w];
        l.tag = tags_[base + w];
        l.valid = (vm >> w) & 1;
        l.dirty = (dm >> w) & 1;
        l.owner = owners_[base + w];
        l.lastUse = stamps_[base + w];
    }
    return {lineScratch_.data(), ways_};
}

unsigned
CacheArray::minStampWay(std::uint64_t s, std::uint64_t mask) const
{
    // vec::minIndex64 resolves stamp ties to the lowest way, the same
    // first-lowest-way tie-break as an ascending scan of the set.
    return vec::minIndex64(&stamps_[s * ways_], mask, ways_);
}

unsigned
CacheArray::chooseVictim(std::uint64_t s, ThreadId requester) const
{
    const std::uint64_t full = fullMask();
    const std::uint64_t vm = validMask_[s];
    if (vm != full) {
        // Every policy fills the first invalid way.
        return ctz64(~vm & full);
    }
    // Only threads with both a share and an ownership mask can be
    // over quota.
    const ThreadId n = maskThreads_ < quotas_.size()
        ? maskThreads_ : static_cast<ThreadId>(quotas_.size());

    switch (policy_) {
      case CapacityPolicy::Lru:
        break;

      case CapacityPolicy::Vpc: {
        // Condition 1 (Section 4.2): LRU line among threads holding
        // more than their way allocation of this set.  Taking the
        // globally LRU line across all of them is the fairness
        // refinement.  Occupancy is the popcount of the incrementally
        // maintained ownership mask -- no recount.
        std::uint64_t elig = 0;
        for (ThreadId j = 0; j < n; ++j) {
            std::uint64_t om = ownerWays_[j * sets_ + s];
            if (static_cast<std::uint64_t>(std::popcount(om)) >
                quotas_[j])
                elig |= om;
        }
        if (elig != 0)
            return minStampWay(s, elig);
        // Condition 2: the requester's own LRU line -- the line a
        // private cache with beta_i of the ways would replace.
        std::uint64_t own = ownerMask(requester, s);
        if (own != 0)
            return minStampWay(s, own);
        vpc_warn("VPC capacity manager: falling back to global LRU");
        break;
      }

      case CapacityPolicy::GlobalOccupancy: {
        // Set-LRU line among threads over their whole-array quota.
        // No per-set protection: a thread within its quota can still
        // lose every way of this set (Section 4.3).
        std::uint64_t elig = 0;
        for (ThreadId j = 0; j < n; ++j) {
            if (trackedOccupancy(j) > quotas_[j])
                elig |= ownerWays_[j * sets_ + s];
        }
        if (elig != 0)
            return minStampWay(s, elig);
        break;
      }
    }
    return minStampWay(s, full);
}

Eviction
CacheArray::insert(Addr addr, ThreadId t, bool dirty)
{
    std::uint64_t s = setIndex(addr);
    unsigned w = chooseVictim(s, t);
    if (forcedVictim != kNoForcedVictim) {
        // Injected fault: override the policy's choice so the victim
        // audit can be shown to catch illegal replacement decisions.
        w = forcedVictim;
        forcedVictim = kNoForcedVictim;
    }
    if (w >= ways_)
        vpc_panic("victim way {} out of {} ways", w, ways_);
    if (victimAudit)
        victimAudit(setLines(s), t, w);

    const std::uint64_t li = s * ways_ + w;
    const std::uint64_t bit = std::uint64_t{1} << w;
    Eviction ev;
    if (validMask_[s] & bit) {
        ev.valid = true;
        ev.dirty = (dirtyMask_[s] & bit) != 0;
        ev.owner = owners_[li];
        // Reconstruct the victim's address: the discarded interleave
        // bits are constant per bank and equal to the incoming
        // address's low line bits.
        Addr low = (addr >> lineShift_) &
                   ((Addr{1} << indexShift_) - 1);
        ev.lineAddr = (((tags_[li] * sets_ + s)
                        << indexShift_) | low) * lineBytes_;
        if (ev.owner < maskThreads_)
            ownerWays_[ev.owner * sets_ + s] &= ~bit;
        bumpOcc(ev.owner, -1);
    }
    tags_[li] = tagOf(addr);
    validMask_[s] |= bit;
    if (dirty)
        dirtyMask_[s] |= bit;
    else
        dirtyMask_[s] &= ~bit;
    owners_[li] = t;
    stamps_[li] = ++useClock;
    if (t != kInvalidThread) {
        ensureMaskThread(t);
        ownerWays_[t * sets_ + s] |= bit;
    }
    bumpOcc(t, +1);
    return ev;
}

bool
CacheArray::markDirty(Addr addr, ThreadId t)
{
    (void)t;
    std::uint64_t s = setIndex(addr);
    Addr tag = tagOf(addr);
    std::uint64_t eq = vec::eqMask64(&tags_[s * ways_], ways_, tag) &
                       validMask_[s];
    if (eq != 0) {
        unsigned w = ctz64(eq);
        dirtyMask_[s] |= std::uint64_t{1} << w;
        stamps_[s * ways_ + w] = ++useClock;
        return true;
    }
    return false;
}

void
CacheArray::invalidate(Addr addr)
{
    std::uint64_t s = setIndex(addr);
    Addr tag = tagOf(addr);
    std::uint64_t eq = vec::eqMask64(&tags_[s * ways_], ways_, tag) &
                       validMask_[s];
    if (eq != 0) {
        unsigned w = ctz64(eq);
        std::uint64_t bit = std::uint64_t{1} << w;
        validMask_[s] &= ~bit;
        dirtyMask_[s] &= ~bit;
        ThreadId owner = owners_[s * ways_ + w];
        if (owner < maskThreads_)
            ownerWays_[owner * sets_ + s] &= ~bit;
        bumpOcc(owner, -1);
    }
}

unsigned
CacheArray::setOccupancy(Addr addr, ThreadId t) const
{
    // Deliberately an owners_ walk, not an ownerWays_ popcount: the
    // verify layer uses this as the independent cross-check of the
    // incremental masks.
    std::uint64_t s = setIndex(addr);
    unsigned n = 0;
    for (std::uint64_t m = validMask_[s]; m != 0; m &= m - 1) {
        unsigned w = ctz64(m);
        if (owners_[s * ways_ + w] == t)
            ++n;
    }
    return n;
}

std::uint64_t
CacheArray::occupancy(ThreadId t) const
{
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < sets_; ++s) {
        for (std::uint64_t m = validMask_[s]; m != 0; m &= m - 1) {
            unsigned w = ctz64(m);
            if (owners_[s * ways_ + w] == t)
                ++n;
        }
    }
    return n;
}

} // namespace vpc
