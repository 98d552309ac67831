/**
 * @file
 * Cycle-attribution profiler for the simulation kernel (--profile).
 *
 * Answers "where does the host's wall time go?" in terms of the model:
 * each registered component (a Ticking — cpu0..N-1, l2, mem) gets an
 * event-time/event-count and tick-time/tick-count account.  Tick time
 * is measured around each executed tick().  Event time is attributed
 * by *owner context*: the kernel tags every scheduled event with the
 * component whose tick (or whose own event) scheduled it, so a DRAM
 * completion scheduled by the memory controller's tick bills to "mem"
 * even though it fires from the event queue, and an event scheduled
 * from inside another event inherits that event's owner.  Events
 * scheduled outside any component context (setup code, tests) bill to
 * the reserved "(unattributed)" account, id 0.
 *
 * The profiler is strictly observe-only: it reads the monotonic clock
 * and bumps counters, so enabling it cannot change any model
 * statistic — tests/system/profiler_test.cc asserts exactly that.
 * When disabled (no Profiler installed) the only residue on the hot
 * paths is one predictable branch per executed tick/event and one
 * 16-bit owner store per scheduled event.
 *
 * mergeByName() folds the profilers of several runs into one report
 * (the benches sum every simulation they run).
 */

#ifndef VPC_SIM_PROFILER_HH
#define VPC_SIM_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vpc
{

/** Per-component host-time accounting (see file comment). */
class Profiler
{
  public:
    /** Component handle; 0 is the reserved unattributed account. */
    using ComponentId = std::uint16_t;

    static constexpr ComponentId kUnattributed = 0;

    /** One component's account. */
    struct Entry
    {
        std::string name;
        std::uint64_t tickNs = 0;    //!< host ns inside tick()
        std::uint64_t tickCount = 0; //!< executed ticks
        std::uint64_t eventNs = 0;   //!< host ns inside owned events
        std::uint64_t eventCount = 0;//!< owned events fired
    };

    Profiler() { entries_.push_back(Entry{"(unattributed)"}); }

    /** Register a component account. @return its id. */
    ComponentId
    add(std::string name)
    {
        entries_.push_back(Entry{std::move(name)});
        return static_cast<ComponentId>(entries_.size() - 1);
    }

    /** Credit @p ns of tick time to @p id. */
    void
    addTick(ComponentId id, std::uint64_t ns)
    {
        Entry &e = entries_[id];
        e.tickNs += ns;
        ++e.tickCount;
    }

    /** Credit @p ns of event-callback time to @p id. */
    void
    addEvent(ComponentId id, std::uint64_t ns)
    {
        Entry &e = entries_[id];
        e.eventNs += ns;
        ++e.eventCount;
    }

    /** @return the monotonic clock, in nanoseconds. */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** @return all accounts, unattributed first. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Fold @p other into this profiler, matching accounts by name. */
    void mergeByName(const Profiler &other);

    /** @return total event-callback ns across all accounts. */
    std::uint64_t totalEventNs() const;

    /** @return total event-callback ns attributed to named accounts. */
    std::uint64_t attributedEventNs() const;

    /**
     * Render the report: one line per account, sorted by total time
     * descending, with an attribution summary line.  Multi-line, no
     * trailing newline.
     */
    std::string report() const;

  private:
    std::vector<Entry> entries_;
};

} // namespace vpc

#endif // VPC_SIM_PROFILER_HH
