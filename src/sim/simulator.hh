/**
 * @file
 * Cycle-stepped simulation driver.
 *
 * The Simulator advances one core cycle at a time.  Each cycle it first
 * fires due events from the shared EventQueue, then calls tick() on every
 * registered Ticking component in registration order.  Registration order
 * is therefore part of the model: producers are registered before
 * consumers so data moves at most one pipeline stage per cycle.
 *
 * Quiescence-aware kernel: components may additionally implement
 * nextWork() to tell the kernel when their next observable tick() can
 * occur.  run() uses the hints two ways:
 *
 *  - active set: within an executed cycle, a component whose
 *    nextWork(now) > now is not ticked at all (its tick() is required to
 *    be a no-op then, so skipping the call is exact);
 *  - fast-forward: when every component is quiescent and no event is
 *    due, cycle_ jumps straight to min(next event, earliest nextWork).
 *
 * Hints are re-polled immediately before each component's tick slot in
 * every executed cycle, so same-cycle activation by an earlier
 * component's tick (a bank enqueueing a DRAM read that the memory
 * controller — registered later — services the same cycle) is observed
 * exactly as in the naive loop.  See DESIGN.md ("Kernel performance
 * model") for the full determinism argument, and the quiescence
 * contract on Ticking::nextWork below.
 *
 * Skipping is disabled whenever an auditor is installed (per-cycle
 * audits and the forward-progress watchdog must observe every cycle)
 * and by setSkipping(false) (the --no-skip flag), which falls back to
 * the naive loop for bit-identical differential runs.
 */

#ifndef VPC_SIM_SIMULATOR_HH
#define VPC_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cancel.hh"
#include "sim/event_queue.hh"
#include "sim/fused_chain.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vpc
{

/** Interface for components that do work every core cycle. */
class Ticking
{
  public:
    virtual ~Ticking() = default;

    /** Perform this component's work for cycle @p now. */
    virtual void tick(Cycle now) = 0;

    /**
     * Quiescence hint: the earliest cycle >= @p now at which this
     * component's tick() might do observable work, assuming no new
     * input arrives (no event fires, no earlier component feeds it).
     *
     * Contract for implementors:
     *
     *  - If nextWork(now) > now, then tick(c) for every cycle c in
     *    [now, nextWork(now)) must be a complete no-op: no model or
     *    statistics state may change, no random numbers may be drawn,
     *    and no calls into other components may occur.  The kernel is
     *    entitled to simply not make those calls.
     *  - Being conservative is always safe: returning @p now (the
     *    default) yields the naive always-tick loop.
     *  - The hint must be derived from current state only.  It is
     *    re-polled after any event fires and after earlier components
     *    tick, so it need not anticipate external wake-ups — those are
     *    visible as state changes by the time the hint is read again.
     *  - Return kCycleMax for "asleep until some event or peer wakes
     *    me" (e.g. an empty memory controller: new work only arrives
     *    via enqueue calls, completions via events).
     */
    virtual Cycle nextWork(Cycle now) const { return now; }
};

/**
 * Interface for runtime invariant auditing (see src/verify/).
 *
 * An auditor is invoked at the end of every step(), after all events
 * and ticks for the cycle have run, so it observes a settled snapshot
 * of the machine state.  Auditors check invariants and vpc_panic on
 * violation; they must not mutate model state (fault injection, which
 * deliberately does, is the one sanctioned exception).
 */
class Auditable
{
  public:
    virtual ~Auditable() = default;

    /** Audit the machine state at the end of cycle @p now. */
    virtual void audit(Cycle now) = 0;
};

/** Owns simulated time; steps registered components and the event queue. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Register a component for per-cycle ticking.  The simulator does
     * not take ownership; the component must outlive the simulator run.
     * @p name labels the component in --profile reports; unnamed
     * components are auto-labelled "comp<index>".
     */
    void
    addTicking(Ticking *t, std::string name = {})
    {
        components.push_back(t);
        names_.push_back(std::move(name));
    }

    /**
     * Install the cycle-attribution profiler (nullptr to remove).
     * Registers every component added so far under its addTicking()
     * name and brackets each executed tick with the component's owner
     * context, so events it schedules bill to it.  Install after all
     * addTicking() calls and before running.  Observe-only: profiling
     * never changes model state or statistics.
     */
    void
    setProfiler(Profiler *p)
    {
        prof_ = p;
        queue.setProfiler(p);
        for (FusedChain *c : chains_)
            c->setProfiler(p);
        ids_.clear();
        if (p != nullptr) {
            ids_.reserve(components.size());
            for (std::size_t i = 0; i < components.size(); ++i) {
                ids_.push_back(p->add(
                    names_[i].empty() ? "comp" + std::to_string(i)
                                      : names_[i]));
            }
        }
    }

    /**
     * Register a fused fixed-latency chain (see sim/fused_chain.hh).
     * Every cycle the kernel drains the chain's due entries right
     * after the event queue fires, in registration order, so the
     * registration order is part of the model's same-cycle order.
     * Not owned; must outlive the simulator run.  An unregistered
     * chain is never drained.
     */
    void
    addFusedChain(FusedChain *c)
    {
        chains_.push_back(c);
        c->setProfiler(prof_);
        c->setDueHook(&chainsDue_);
        if (c->nextDue() < chainsDue_)
            chainsDue_ = c->nextDue();
    }

    /** @return pending events including undrained fused-chain entries. */
    std::size_t
    pendingEvents() const
    {
        std::size_t n = queue.size();
        for (const FusedChain *c : chains_)
            n += c->pending();
        return n;
    }

    /**
     * Install the audit hook (nullptr to remove).  The auditor does
     * not become owned; it runs after every step.  Installing an
     * auditor forces the naive per-cycle loop: audits and the watchdog
     * are defined per cycle, so no cycle may be skipped while one is
     * attached.
     */
    void setAuditor(Auditable *a) { auditor_ = a; }

    /**
     * Enable or disable quiescence skipping in run() (default on).
     * With skipping off the kernel executes the naive loop: every
     * cycle, every component.  Results are identical either way — the
     * differential tests assert it — so this is a verification and
     * debugging aid (--no-skip).
     */
    void setSkipping(bool on) { skipping_ = on; }

    /** @return whether run() may fast-forward quiescent spans. */
    bool skipping() const { return skipping_; }

    /**
     * Install a cooperative cancel token (nullptr to remove).  run()
     * polls it once per executed loop iteration and throws
     * JobCancelled when it is set, leaving the machine torn mid-run —
     * the caller must discard the system.  Observe-only for runs that
     * complete: with the token unset (or absent) cycle ordering,
     * events and every kernel counter are unchanged (see
     * sim/cancel.hh).
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

    /** @return kernel work counters for this simulator's lifetime. */
    const KernelStats &kernelStats() const { return kernel_; }

    /** @return the shared event queue. */
    EventQueue &events() { return queue; }
    const EventQueue &events() const { return queue; }

    /** @return the current cycle. */
    Cycle now() const { return cycle_; }

    /** Advance the simulation by exactly one cycle (naive semantics). */
    void
    step()
    {
        kernel_.eventsFired.inc(queue.runDue(cycle_));
        drainChains();
        if (prof_ != nullptr) {
            for (std::size_t i = 0; i < components.size(); ++i)
                profiledTick(i, cycle_);
        } else {
            for (Ticking *t : components)
                t->tick(cycle_);
        }
        kernel_.ticksExecuted.inc(components.size());
        kernel_.cyclesExecuted.inc();
        if (auditor_)
            auditor_->audit(cycle_);
        ++cycle_;
    }

    /** Advance the simulation by @p cycles cycles. */
    void
    run(Cycle cycles)
    {
        // Saturate instead of wrapping: an overflowed end marker would
        // sit *behind* cycle_ and silently run zero cycles.
        Cycle end = cycles > kCycleMax - cycle_ ? kCycleMax
                                                : cycle_ + cycles;
        if (!skipping_ || auditor_ != nullptr) {
            while (cycle_ < end) {
                checkCancelled();
                step();
            }
            syncWheelStats();
            return;
        }
        while (cycle_ < end) {
            checkCancelled();
            kernel_.eventsFired.inc(queue.runDue(cycle_));
            drainChains();
            // Active set: poll each hint immediately before the
            // component's slot so feeds from events and from earlier
            // components this cycle are already visible.
            for (std::size_t i = 0; i < components.size(); ++i) {
                Ticking *t = components[i];
                if (t->nextWork(cycle_) <= cycle_) {
                    if (prof_ != nullptr)
                        profiledTick(i, cycle_);
                    else
                        t->tick(cycle_);
                    kernel_.ticksExecuted.inc();
                }
            }
            kernel_.cyclesExecuted.inc();
            ++cycle_;
            // Fast-forward: nothing can happen before the earliest of
            // the next event, the next fused-chain entry (the cached
            // minimum — pushes min-update it, drains re-derive it),
            // and every component's next work cycle.
            Cycle next = queue.nextEventCycle();
            if (chainsDue_ < next)
                next = chainsDue_;
            if (next <= cycle_)
                continue; // an event is already due — no skip possible
            for (Ticking *t : components) {
                Cycle w = t->nextWork(cycle_);
                if (w < next)
                    next = w;
                if (next <= cycle_)
                    break; // already due — no skip possible
            }
            if (next > cycle_) {
                Cycle target = next < end ? next : end;
                if (target > cycle_) {
                    kernel_.cyclesSkipped.inc(target - cycle_);
                    cycle_ = target;
                }
            }
        }
        syncWheelStats();
    }

  private:
    /** Throw JobCancelled when the installed token is set. */
    void
    checkCancelled() const
    {
        if (cancel_ != nullptr &&
            cancel_->load(std::memory_order_relaxed)) {
            throw JobCancelled("simulation cancelled at cycle " +
                               std::to_string(cycle_));
        }
    }

    /**
     * Drain every fused chain's entries due this cycle.  One compare
     * on the cached earliest-due cycle in the common (nothing due)
     * case; a due drain re-derives the exact minimum afterwards, in a
     * second pass so pushes made *by* drained handlers (always due
     * strictly later — lane latencies are positive constants) are
     * observed no matter which lane they landed in.
     */
    void
    drainChains()
    {
        if (chainsDue_ > cycle_)
            return;
        chainsDue_ = kCycleMax;
        for (FusedChain *c : chains_) {
            std::uint64_t n = c->drain(cycle_);
            if (c->counted())
                kernel_.eventsFired.inc(n);
        }
        for (const FusedChain *c : chains_) {
            Cycle d = c->nextDue();
            if (d < chainsDue_)
                chainsDue_ = d;
        }
    }

    /** Timed tick of component @p i with its owner context active. */
    void
    profiledTick(std::size_t i, Cycle now)
    {
        Profiler::ComponentId id = ids_[i];
        queue.setProfileContext(id);
        std::uint64_t t0 = Profiler::nowNs();
        components[i]->tick(now);
        prof_->addTick(id, Profiler::nowNs() - t0);
        queue.setProfileContext(Profiler::kUnattributed);
    }

    /** Fold the wheel's cascade count into the kernel counters. */
    void
    syncWheelStats()
    {
        std::uint64_t c = queue.cascades();
        kernel_.wheelCascades.inc(c - cascadesSeen_);
        cascadesSeen_ = c;
    }

    EventQueue queue;
    std::vector<Ticking *> components;
    std::vector<FusedChain *> chains_;    //!< drained after runDue
    Cycle chainsDue_ = kCycleMax;         //!< earliest fused entry due
    std::vector<std::string> names_;      //!< profile labels, parallel
    std::vector<Profiler::ComponentId> ids_; //!< profiler accounts
    Profiler *prof_ = nullptr;            //!< null unless --profile
    Cycle cycle_ = 0;
    Auditable *auditor_ = nullptr;
    const CancelToken *cancel_ = nullptr; //!< null unless supervised
    bool skipping_ = true;
    KernelStats kernel_;
    std::uint64_t cascadesSeen_ = 0;
};

} // namespace vpc

#endif // VPC_SIM_SIMULATOR_HH
