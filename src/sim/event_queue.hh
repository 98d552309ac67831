/**
 * @file
 * Deterministic event queue for delayed callbacks.
 *
 * The simulator is cycle-stepped (see Simulator), but several models
 * need "call me back in N cycles" semantics: DRAM access completion,
 * crossbar transit, data-bus beat completion.  Events scheduled for the
 * same cycle fire in insertion order — entries order by (when, seq) —
 * which keeps runs reproducible.
 *
 * Pending-set design: a two-level hierarchical timing wheel with a
 * heap overflow.  Nearly every event in the machine is short-delay
 * (L1 hit 2, crossbar 2, tag 4, data 8, bus beats, DRAM ~100 cycles),
 * so level 0 — 512 one-cycle slots — absorbs the hot path with O(1)
 * schedule and O(1) locate-next-slot, replacing the binary heap's
 * O(log n) sift per operation.  Level 1 covers the next 127 blocks of
 * 512 cycles each; entries cascade into level 0 when the cursor enters
 * their block.  Anything beyond ~65k cycles ahead (rare: watchdog-ish
 * timeouts, tests) sits in a min-heap and cascades into the wheel as
 * its horizon approaches.  Slots are unsorted vectors; a slot is
 * sorted by sequence once, when it fires.  Occupancy bitmaps make
 * nextEventCycle() a handful of word scans, cheap enough for the
 * quiescence fast-forward to call every executed cycle.
 *
 * Hot-path allocation design (unchanged from the heap version): events
 * are intrusive pool nodes — the callable is constructed in-place in a
 * fixed inline buffer inside a slab-allocated node, dispatched through
 * a function pointer, and recycled on a free list after firing.
 * Callables too large for the inline buffer fall back to a heap box.
 */

#ifndef VPC_SIM_EVENT_QUEUE_HH
#define VPC_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/types.hh"

namespace vpc
{

/** Orders events by (cycle, insertion sequence). */
class EventQueue
{
  public:
    /**
     * Compatibility alias: schedule() accepts any callable, including a
     * std::function built by older call sites and tests.
     */
    using Callback = std::function<void()>;

    EventQueue()
        : l0_(kL0Slots), l1_(kL1Slots), l1Block_(kL1Slots, 0),
          l1Min_(kL1Slots, kCycleMax)
    {
        l0Bits_.fill(0);
        l1Bits_.fill(0);
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Destroy callables of events that never fired.  The slabs
        // themselves free with the vector.
        auto destroySlot = [](const std::vector<Entry> &slot) {
            for (const Entry &e : slot)
                e.node->destroy(e.node->storage);
        };
        for (const auto &slot : l0_)
            destroySlot(slot);
        for (const auto &slot : l1_)
            destroySlot(slot);
        destroySlot(overflow_);
    }

    /**
     * Schedule a callable to run at cycle @p when, ordered among
     * same-cycle events by insertion sequence.
     *
     * The callable is moved into pooled inline storage; captures up to
     * kInlineBytes cost no allocation.
     *
     * @pre @p when must not be in the past relative to the last
     *      runDue() call.
     */
    template <class F>
    void
    schedule(Cycle when, F &&cb)
    {
        if (when < lastRun_)
            vpc_panic("event scheduled in the past ({} < {})", when,
                      lastRun_);
        Node *node = makeNode(std::forward<F>(cb));
        place(Entry{when, nextSeq_++, node});
        ++live_;
        // Keep the next-event cache exact while it is valid; a dirty
        // cache must stay dirty (min-updating an unknown value could
        // hide an earlier pending event from the fast-forward).
        if (!cacheDirty_ && when < cachedNext_)
            cachedNext_ = when;
    }

    /**
     * Install (or clear, with nullptr) the cycle-attribution profiler.
     * With one installed, every fired callback is timed and credited
     * to the component context that scheduled it (see Profiler).  Not
     * owned; must outlive the queue's use.
     */
    void setProfiler(Profiler *p) { prof_ = p; }

    /**
     * Set the owner context for subsequently scheduled events.  The
     * kernel brackets each component's tick() with its id; events
     * scheduled from inside a callback inherit the firing event's
     * owner instead (fireSlot() overrides the context).
     */
    void setProfileContext(Profiler::ComponentId id) { profCtx_ = id; }

    /**
     * @return the owner context an event scheduled right now would be
     * billed to.  Fused chains (sim/fused_chain.hh) capture it at push
     * time so counted lane drains bill exactly like the event path.
     */
    Profiler::ComponentId profileContext() const { return profCtx_; }

    /**
     * Run every event due at or before @p now, in insertion order
     * within each cycle.  Events may schedule further events
     * (including for @p now).
     *
     * @param now current cycle
     * @return number of events executed
     */
    std::size_t
    runDue(Cycle now)
    {
        // Time only moves forward.  Running the queue backward would
        // re-arm the schedule() past-check against an earlier cycle,
        // quietly re-admitting events scheduled before now().
        if (now < lastRun_)
            vpc_panic("event queue run backward ({} < {})", now,
                      lastRun_);
        lastRun_ = now;
        std::size_t n = 0;
        while (live_ > 0) {
            Cycle next = nextEventCycle();
            if (next > now)
                break;
            advanceTo(next);
            n += fireSlot(next);
        }
        return n;
    }

    /** @return cycle of the earliest pending event, or kCycleMax. */
    Cycle
    nextEventCycle() const
    {
        if (live_ == 0)
            return kCycleMax;
        if (cacheDirty_) {
            cachedNext_ = findNext();
            cacheDirty_ = false;
        }
        return cachedNext_;
    }

    /** @return the cycle passed to the most recent runDue() call. */
    Cycle lastRunCycle() const { return lastRun_; }

    /** @return true if no events are pending. */
    bool empty() const { return live_ == 0; }

    /** @return number of pending events. */
    std::size_t size() const { return live_; }

    /**
     * @return number of entries migrated between wheel levels (level 1
     * or overflow heap into level 0).  Kernel perf counter.
     */
    std::uint64_t cascades() const { return cascades_; }

    /**
     * @return peak number of simultaneously live pooled nodes (tests).
     * Slabs are carved in batches, so this — not slab count — is the
     * measure of "the pool grows to peak-pending, not total-scheduled".
     */
    std::size_t poolAllocated() const { return peakLive_; }

    /** @return how many of those peak nodes are currently idle (tests). */
    std::size_t poolFree() const { return peakLive_ - liveNodes_; }

    /** Inline capture budget per event before the heap-box fallback. */
    static constexpr std::size_t kInlineBytes = 104;

    /** Cycles covered by wheel level 0 (tests exercise the cascade). */
    static constexpr std::size_t kL0Slots = 512;

    /** Level-1 slot count; horizon = kL0Slots * kL1Slots cycles. */
    static constexpr std::size_t kL1Slots = 128;

  private:
    struct Node
    {
        void (*run)(void *storage);
        void (*destroy)(void *storage);
        Node *nextFree;
        /** Profiler account of the scheduling context (0 = none). */
        Profiler::ComponentId owner;
        alignas(std::max_align_t) std::byte storage[kInlineBytes];
    };

    struct Entry
    {
        Cycle when;
        std::uint64_t seq; //!< insertion order among same-cycle events
        Node *node;
    };

    /** @return the level-1 block index covering @p c. */
    static Cycle block(Cycle c) { return c / kL0Slots; }

    /** File @p e into the right level for the current cursor. */
    void
    place(const Entry &e)
    {
        Cycle b = block(e.when);
        if (b == curBlock_) {
            std::size_t idx = e.when % kL0Slots;
            l0_[idx].push_back(e);
            l0Bits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
            return;
        }
        if (b - curBlock_ < kL1Slots) {
            std::size_t idx = b % kL1Slots;
            if (l1_[idx].empty()) {
                l1Block_[idx] = b;
                l1Min_[idx] = e.when;
            } else if (l1Block_[idx] != b) {
                vpc_panic("timing wheel L1 slot collision "
                          "(block {} vs {})", l1Block_[idx], b);
            } else if (e.when < l1Min_[idx]) {
                l1Min_[idx] = e.when;
            }
            l1_[idx].push_back(e);
            l1Bits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
            return;
        }
        overflow_.push_back(e);
        std::push_heap(overflow_.begin(), overflow_.end(), laterWhen);
    }

    /** Min-heap comparator on when (overflow needs no total order). */
    static bool
    laterWhen(const Entry &a, const Entry &b)
    {
        return a.when > b.when;
    }

    /**
     * Move the level-0 window to the block containing @p c, cascading
     * level-1 and overflow entries whose blocks enter the horizon.
     *
     * @pre level 0 is empty of entries before @p c (callers only
     *      advance to the minimum pending cycle).
     */
    void
    advanceTo(Cycle c)
    {
        Cycle b = block(c);
        if (b == curBlock_)
            return;
        curBlock_ = b;
        // Entries for the new current block leave level 1...
        std::size_t idx = b % kL1Slots;
        if (!l1_[idx].empty()) {
            if (l1Block_[idx] != b)
                vpc_panic("timing wheel cascade found stale block {} "
                          "in slot for block {}", l1Block_[idx], b);
            cascades_ += l1_[idx].size();
            for (const Entry &e : l1_[idx]) {
                std::size_t s = e.when % kL0Slots;
                l0_[s].push_back(e);
                l0Bits_[s / 64] |= std::uint64_t{1} << (s % 64);
            }
            l1_[idx].clear();
            l1Min_[idx] = kCycleMax;
            l1Bits_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
        }
        // ...and overflow entries now inside the level-1 horizon
        // redistribute into the wheel.
        Cycle horizonEnd = (curBlock_ + kL1Slots) * kL0Slots;
        while (!overflow_.empty() &&
               overflow_.front().when < horizonEnd) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          laterWhen);
            Entry e = overflow_.back();
            overflow_.pop_back();
            ++cascades_;
            place(e);
        }
    }

    /** Fire all entries in the level-0 slot for cycle @p c. */
    std::size_t
    fireSlot(Cycle c)
    {
        std::size_t idx = c % kL0Slots;
        auto &slot = l0_[idx];
        std::size_t n = 0;
        // Callbacks may schedule for this same cycle; those entries
        // land back in `slot` (with strictly later sequence numbers
        // than everything already sorted) and are picked up by the
        // next round.
        while (!slot.empty()) {
            scratch_.swap(slot);
            // Cascaded entries join a slot after entries scheduled
            // later, and the overflow heap pops same-cycle entries in
            // no fixed order: restore (when, seq) order.
            std::sort(scratch_.begin(), scratch_.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.when != b.when ? a.when < b.when
                                                  : a.seq < b.seq;
                      });
            for (const Entry &e : scratch_) {
                // The node returns to the free list only after the
                // call: a reschedule from inside the callback must not
                // reuse the storage the callable still lives in.
                if (prof_ != nullptr) {
                    // Children scheduled by this callback inherit its
                    // owner; the tick loop re-sets the context after.
                    Profiler::ComponentId owner = e.node->owner;
                    profCtx_ = owner;
                    std::uint64_t t0 = Profiler::nowNs();
                    e.node->run(e.node->storage);
                    prof_->addEvent(owner, Profiler::nowNs() - t0);
                    profCtx_ = Profiler::kUnattributed;
                } else {
                    e.node->run(e.node->storage);
                }
                e.node->destroy(e.node->storage);
                release(e.node);
            }
            n += scratch_.size();
            scratch_.clear();
        }
        l0Bits_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
        live_ -= n;
        cacheDirty_ = true; // recompute lazily on next query
        return n;
    }

    /** Exact scan for the earliest pending cycle. @pre live_ > 0. */
    Cycle
    findNext() const
    {
        // Level 0 holds exactly the current block, so slot index order
        // is cycle order and the first set bit is the earliest level-0
        // cycle.
        for (std::size_t w = 0; w < l0Bits_.size(); ++w) {
            if (l0Bits_[w]) {
                std::size_t bit =
                    static_cast<std::size_t>(w) * 64 +
                    static_cast<std::size_t>(
                        std::countr_zero(l0Bits_[w]));
                return curBlock_ * kL0Slots + bit;
            }
        }
        Cycle best = kCycleMax;
        for (std::size_t w = 0; w < l1Bits_.size(); ++w) {
            std::uint64_t bits = l1Bits_[w];
            while (bits) {
                std::size_t idx =
                    w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(bits));
                bits &= bits - 1;
                if (l1Min_[idx] < best)
                    best = l1Min_[idx];
            }
        }
        if (!overflow_.empty() && overflow_.front().when < best)
            best = overflow_.front().when;
        return best;
    }

    template <class F>
    Node *
    makeNode(F &&cb)
    {
        using Fn = std::decay_t<F>;
        Node *node = acquire();
        node->owner = profCtx_;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(node->storage))
                Fn(std::forward<F>(cb));
            node->run = [](void *s) { (*std::launder(
                reinterpret_cast<Fn *>(s)))(); };
            node->destroy = [](void *s) { std::launder(
                reinterpret_cast<Fn *>(s))->~Fn(); };
        } else {
            // Oversized capture: box it.  A raw pointer always fits.
            ::new (static_cast<void *>(node->storage))
                Fn *(new Fn(std::forward<F>(cb)));
            node->run = [](void *s) { (**std::launder(
                reinterpret_cast<Fn **>(s)))(); };
            node->destroy = [](void *s) { delete *std::launder(
                reinterpret_cast<Fn **>(s)); };
        }
        return node;
    }

    Node *
    acquire()
    {
        if (freeList_ == nullptr)
            refill();
        Node *node = freeList_;
        freeList_ = node->nextFree;
        if (++liveNodes_ > peakLive_)
            peakLive_ = liveNodes_;
        return node;
    }

    void
    release(Node *node)
    {
        node->nextFree = freeList_;
        freeList_ = node;
        --liveNodes_;
    }

    void
    refill()
    {
        slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
        Node *slab = slabs_.back().get();
        for (std::size_t i = 0; i < kSlabNodes; ++i) {
            slab[i].nextFree = freeList_;
            freeList_ = &slab[i];
        }
    }

    static constexpr std::size_t kSlabNodes = 64;

    std::vector<std::vector<Entry>> l0_; //!< current block, 1c slots
    std::vector<std::vector<Entry>> l1_; //!< next 127 blocks
    std::vector<Cycle> l1Block_;         //!< block id per L1 slot
    std::vector<Cycle> l1Min_;           //!< earliest when per L1 slot
    std::array<std::uint64_t, kL0Slots / 64> l0Bits_;
    std::array<std::uint64_t, kL1Slots / 64> l1Bits_;
    std::vector<Entry> overflow_;        //!< min-heap on when
    std::vector<Entry> scratch_;         //!< firing buffer (reused)
    Cycle curBlock_ = 0;                 //!< block mapped into level 0

    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node *freeList_ = nullptr;
    std::size_t liveNodes_ = 0; //!< nodes holding a pending/firing event
    std::size_t peakLive_ = 0;  //!< high-water mark of liveNodes_
    std::size_t live_ = 0;      //!< pending entries
    std::uint64_t nextSeq_ = 0;
    std::uint64_t cascades_ = 0;
    Cycle lastRun_ = 0;
    mutable Cycle cachedNext_ = kCycleMax;
    mutable bool cacheDirty_ = false;
    Profiler *prof_ = nullptr; //!< null unless --profile
    /** Owner billed to events scheduled right now (see setProfileContext). */
    Profiler::ComponentId profCtx_ = Profiler::kUnattributed;
};

} // namespace vpc

#endif // VPC_SIM_EVENT_QUEUE_HH
