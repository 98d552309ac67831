#include "core/cpu.hh"

#include "sim/logging.hh"

namespace vpc
{

Cpu::Cpu(const CoreConfig &cfg_, ThreadId thread_, Workload &workload_,
         L1DCache &l1_, L2Cache &l2_)
    : cfg(cfg_), thread(thread_), workload(workload_), l1(l1_),
      l2(l2_), rng(0xc0ffee + thread_, 0xabcd1234 + thread_),
      lsuRejectB_(cfg.lsuRejectProb)
{
    waitQ_.reserve(cfg.loadQueueEntries);
}

Cycle
Cpu::nextWork(Cycle now) const
{
    // Retire acts unless the ROB is empty or the head is a load still
    // in flight (a store head attempts an L2 write-through, a Done or
    // compute head retires — both observable).
    if (!rob.empty()) {
        const RobEntry &head = rob.front();
        if (head.op.kind != MicroOp::Kind::Load ||
            head.state == State::Done)
            return now;
    }
    // Issue scans for waiting loads; any such load consumes a port
    // and may draw from the RNG, even if it ends up rejected.
    if (!waitQ_.empty())
        return now;
    // Dispatch acts unless structurally blocked with the next op
    // already in the block buffer (an empty buffer means dispatch
    // would refill it, consuming workload state).
    if (rob.size() < cfg.robEntries) {
        if (fetchPos_ >= fetchLen_)
            return now;
        const MicroOp &head = fetchBlock_[fetchPos_];
        bool lq_full = head.kind == MicroOp::Kind::Load &&
                       loadsInRob >= cfg.loadQueueEntries;
        bool sq_full = head.kind == MicroOp::Kind::Store &&
                       storesInRob >= cfg.storeQueueEntries;
        if (!lq_full && !sq_full)
            return now;
    }
    return kCycleMax; // a load-completion event wakes the core
}

void
Cpu::tick(Cycle now)
{
    // Classic reverse pipeline order so data moves one stage per cycle.
    retireStage(now);
    issueStage(now);
    dispatchStage(now);
}

void
Cpu::retireStage(Cycle now)
{
    unsigned committed_stores = 0;
    for (unsigned i = 0; i < cfg.retireWidth && !rob.empty(); ++i) {
        RobEntry &head = rob.front();
        if (head.op.kind == MicroOp::Kind::Store) {
            if (committed_stores >= cfg.storeCommitWidth)
                break;
            // Write-through: the store must be accepted by the target
            // bank's gathering buffer before it can leave the machine.
            if (!l2.store(thread, head.op.addr, now)) {
                storeStalls.inc();
                break;
            }
            l1.store(head.op.addr, now);
            ++committed_stores;
            stores.inc();
            --storesInRob;
        } else if (head.op.kind == MicroOp::Kind::Load) {
            if (head.state != State::Done)
                break;
            loads.inc();
            --loadsInRob;
        } else if (head.state != State::Done) {
            break;
        }
        retired.inc();
        rob.pop_front();
    }
    oldestInRob = rob.empty() ? nextSeq : rob.front().seq;
}

bool
Cpu::depSatisfied(const RobEntry &entry) const
{
    if (!entry.op.dependsOnPrevLoad || entry.prevLoadSeq == 0)
        return true;
    if (entry.prevLoadSeq < oldestInRob)
        return true; // the producer already retired
    // ROB sequence numbers are contiguous (allocated at dispatch,
    // released only from the front), so the producer sits exactly
    // prevLoadSeq - front.seq slots in.
    return rob[entry.prevLoadSeq - rob.front().seq].state ==
           State::Done;
}

void
Cpu::issueStage(Cycle now)
{
    if (waitQ_.empty())
        return; // nothing issuable
    unsigned ports_used = 0;
    SeqNum base = rob.front().seq;
    // Walk the waiting-load list in program order, compacting out the
    // loads that issue; the ones that stay behind (dependence not yet
    // satisfied, LSU reject, MSHRs full) keep their relative order.
    std::size_t r = 0;
    std::size_t w = 0;
    for (; r < waitQ_.size(); ++r) {
        if (ports_used >= cfg.lsuPorts)
            break;
        RobEntry &e = rob[waitQ_[r] - base];
        if (!depSatisfied(e)) {
            waitQ_[w++] = waitQ_[r];
            continue;
        }
        ++ports_used;
        // One touching probe decides hit/miss up front.  This is
        // load()'s internal lookup hoisted above the reject draw: the
        // LRU touch only happens on a hit (where no RNG is consulted)
        // and a miss leaves the array untouched, so state and the RNG
        // sequence are identical to probing after the draw.
        bool hit = l1.probeTouch(e.op.addr);
        if (!hit && rng.chance(lsuRejectB_)) {
            // LSU reject on an L1 miss (LMQ allocation): the issue
            // slot is wasted and the load retries later, perturbing
            // the order loads reach the L2 and capping miss issue
            // bandwidth -- the 970 behaviour behind the Loads
            // benchmark's sub-100% utilization at >= 4 banks (Fig. 5).
            lsuRejects.inc();
            waitQ_[w++] = waitQ_[r];
            continue;
        }
        if (hit) {
            l1.completeHit();
            hitLane_.push(now + l1.hitLatency(), e.seq);
        } else if (l1.loadMiss(e.op.addr, now,
                               [this, seq = e.seq]() {
                                   complete(seq);
                               }) == L1DCache::LoadResult::Blocked) {
            // all MSHRs busy; slot wasted, retry later
            waitQ_[w++] = waitQ_[r];
            continue;
        }
        e.state = State::Issued;
    }
    if (w != r) {
        // Keep the unexamined tail (ports ran out before the end).
        while (r < waitQ_.size())
            waitQ_[w++] = waitQ_[r++];
        waitQ_.resize(w);
    }
}

void
Cpu::refillBlock()
{
    workload.nextBlock(std::span<MicroOp>(fetchBlock_));
    // Pre-decode the dependence flags into the side-array so the
    // dispatch loop reads a plain byte instead of re-inspecting ops.
    for (std::size_t i = 0; i < kFetchBlock; ++i)
        fetchDeps_[i] = fetchBlock_[i].dependsOnPrevLoad ? 1 : 0;
    fetchPos_ = 0;
    fetchLen_ = kFetchBlock;
}

void
Cpu::dispatchStage(Cycle now)
{
    (void)now;
    for (unsigned i = 0; i < cfg.dispatchWidth; ++i) {
        if (rob.size() >= cfg.robEntries)
            break;
        if (fetchPos_ >= fetchLen_)
            refillBlock();
        const MicroOp &head = fetchBlock_[fetchPos_];
        if (head.kind == MicroOp::Kind::Load &&
            loadsInRob >= cfg.loadQueueEntries) {
            break;
        }
        if (head.kind == MicroOp::Kind::Store &&
            storesInRob >= cfg.storeQueueEntries) {
            break;
        }

        bool was_empty = rob.empty();
        RobEntry &entry = rob.emplace_back();
        entry.op = head;
        entry.op.dependsOnPrevLoad = fetchDeps_[fetchPos_] != 0;
        ++fetchPos_;
        entry.seq = nextSeq++;
        entry.prevLoadSeq = lastLoadSeq;
        switch (entry.op.kind) {
          case MicroOp::Kind::Load:
            ++loadsInRob;
            waitQ_.push_back(entry.seq);
            lastLoadSeq = entry.seq;
            break;
          case MicroOp::Kind::Store:
            ++storesInRob;
            break;
          case MicroOp::Kind::Compute:
            // Non-memory work completes in a single cycle; it becomes
            // retirable on the next retire pass.
            entry.state = State::Done;
            break;
        }
        if (was_empty)
            oldestInRob = entry.seq;
    }
}

void
Cpu::complete(SeqNum seq)
{
    // Contiguous ROB sequence numbers make completion O(1): the entry
    // for seq, if still tracked, is exactly seq - front.seq slots in.
    SeqNum base = rob.empty() ? nextSeq : rob.front().seq;
    if (rob.empty() || seq < base || seq - base >= rob.size())
        vpc_panic("completion for unknown seq {}", seq);
    RobEntry &e = rob[seq - base];
    if (e.state != State::Issued)
        vpc_panic("completion for seq {} in state {}", seq,
                  static_cast<int>(e.state));
    e.state = State::Done;
}

} // namespace vpc
