/**
 * @file
 * Fused fixed-latency event chains.
 *
 * Many hot event-queue hops have a latency that is a configuration
 * constant and a handler that is a pure state write consumed only by
 * later ticks: the L1 hit completion (hitLatency), the crossbar
 * transit to an L2 bank (interconnectLatency), the critical-word
 * response beat (busBeatCycles).  Routing those through the timing
 * wheel pays closure construction, placement, cascade and
 * deterministic ordering cost for hops whose order the model can
 * prove irrelevant.
 *
 * A fused chain is a FIFO side channel for one such hop class:
 * producers push (due-cycle, payload) records, and the kernel drains
 * every record due at the current cycle right after the event queue
 * fires — before any component ticks, so ticks observe exactly the
 * state the event-path delivery would have produced.  Because every
 * record in a lane carries the same constant latency, push order is
 * due order and the drain is a pointer chase down a ring, not a wheel
 * walk.  The payload is plain data handed to a sink bound at
 * construction (DataLane below) — no type erasure, no per-record
 * allocation, no indirect call on the hot path.
 *
 * Legality (see DESIGN.md 5i): a chain may only be fused when (a) its
 * latency is constant for the lane's lifetime and (b) its handlers are
 * pure state writes that no other same-cycle event handler reads.
 * Chains that arbitrate shared state inside the handler
 * (tagDone/dataDone/busDone, memory returns) stay on the event queue.
 *
 * The kernel keeps a cached earliest-due cycle so lanes cost nothing
 * on cycles with no fused work: addFusedChain installs a due hook
 * (setDueHook) that push() min-updates, the kernel compares one Cycle
 * per executed cycle, and only a due drain touches the lanes at all.
 *
 * Counted lanes (crossbar transit, critical-word response) increment
 * eventsFired and bill the profiler exactly as the event path would;
 * uncounted lanes (L1 hit completions) vanish from both.  Which lanes
 * count is pinned by the committed goldens (eventsFired is in the
 * vpcsim "kernel:" line), so changing it means regenerating them.
 */

#ifndef VPC_SIM_FUSED_CHAIN_HH
#define VPC_SIM_FUSED_CHAIN_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/profiler.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace vpc
{

/** Kernel-side view of one fused chain. */
class FusedChain
{
  public:
    virtual ~FusedChain() = default;

    /**
     * Run every entry due at or before @p now, in push order.
     * @return the number of entries drained.
     */
    virtual std::uint64_t drain(Cycle now) = 0;

    /** @return whether drained entries count as fired events. */
    virtual bool counted() const = 0;

    /** @return the due cycle of the oldest entry, or kCycleMax. */
    virtual Cycle nextDue() const = 0;

    /** @return entries not yet drained. */
    virtual std::size_t pending() const = 0;

    /**
     * Install (or clear) the profiler counted drains bill into; the
     * owning kernel forwards its own setProfiler here.  No-op for
     * chains that never bill.
     */
    virtual void setProfiler(Profiler *) {}

    /**
     * Install the owning kernel's earliest-due cache: push() will
     * min-update *@p hook, so the kernel can skip the lanes entirely
     * on cycles where nothing fused is due.  Passing nullptr detaches
     * (pushes fall back to a private sink).  The hook must outlive the
     * chain's use; the kernel is responsible for re-deriving the exact
     * minimum (via nextDue()) after each drain.
     */
    void setDueHook(Cycle *hook) { dueHook_ = hook ? hook : &selfDue_; }

  protected:
    /** Record that an entry due at @p when was pushed. */
    void
    noteDue(Cycle when)
    {
        if (when < *dueHook_)
            *dueHook_ = when;
    }

  private:
    Cycle selfDue_ = kCycleMax; //!< sink while no kernel is attached
    Cycle *dueHook_ = &selfDue_;
};

/**
 * The one concrete chain shape: a FIFO of (due, owner, payload)
 * records consumed by a sink bound at construction.  @p T must be
 * trivially copyable plain data (the whole point is that a fused hop
 * needs no closure); @p Sink is a stateless-or-small callable invoked
 * as sink(when, payload).  Producers push with the lane's constant
 * latency already applied, so due cycles are monotonically
 * non-decreasing in push order.
 */
template <class T, class Sink>
class DataLane final : public FusedChain
{
  public:
    /**
     * @param counted drains increment eventsFired and bill the
     *        profiler (lanes standing in for counted events);
     *        uncounted lanes never touch either.
     * @param sink consumer invoked for each drained record
     */
    explicit DataLane(bool counted, Sink sink = Sink{})
        : sink_(std::move(sink)), counted_(counted)
    {}

    void setProfiler(Profiler *p) override { prof_ = p; }

    /** Queue @p v for cycle @p when, billed to @p owner. */
    void
    push(Cycle when, Profiler::ComponentId owner, const T &v)
    {
        Entry &e = ring_.emplace_back();
        e.when = when;
        e.owner = owner;
        e.payload = v;
        noteDue(when);
    }

    /** Queue @p v for cycle @p when (uncounted lanes). */
    void
    push(Cycle when, const T &v)
    {
        push(when, Profiler::kUnattributed, v);
    }

    std::uint64_t
    drain(Cycle now) override
    {
        std::uint64_t fired = 0;
        while (!ring_.empty() && ring_.front().when <= now) {
            // Copy out before popping: the sink may push new records
            // (never due this cycle — the latency is a positive
            // constant) and grow the ring under us.
            Entry e = ring_.front();
            ring_.pop_front();
            if (counted_ && prof_ != nullptr) {
                std::uint64_t t0 = Profiler::nowNs();
                sink_(e.when, e.payload);
                prof_->addEvent(e.owner, Profiler::nowNs() - t0);
            } else {
                sink_(e.when, e.payload);
            }
            ++fired;
        }
        return fired;
    }

    bool counted() const override { return counted_; }

    Cycle
    nextDue() const override
    {
        return ring_.empty() ? kCycleMax : ring_.front().when;
    }

    std::size_t pending() const override { return ring_.size(); }

  private:
    struct Entry
    {
        Cycle when = 0;
        Profiler::ComponentId owner = Profiler::kUnattributed;
        T payload{};
    };

    SmallRing<Entry> ring_;
    Sink sink_;
    bool counted_;
    Profiler *prof_ = nullptr;
};

} // namespace vpc

#endif // VPC_SIM_FUSED_CHAIN_HH
