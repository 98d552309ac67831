/**
 * @file
 * The shared, banked L2 cache (Figure 2a of the paper).
 *
 * Requests are address-interleaved across banks using the bits directly
 * above the line offset.  Each processor has private read/write ports
 * into every bank, so the crossbar contributes latency only (2 cycles
 * each way at 1/2 core frequency); contention is modeled at the banks'
 * shared resources.
 */

#ifndef VPC_CACHE_L2_CACHE_HH
#define VPC_CACHE_L2_CACHE_HH

#include <functional>
#include <memory>
#include <vector>

#include "cache/l2_bank.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace vpc
{

/** Shared L2: crossbar front-end plus address-interleaved banks. */
class L2Cache : public Ticking
{
  public:
    /** Load critical-word delivery to a core. */
    using ResponseHandler =
        std::function<void(ThreadId t, Addr line_addr)>;

    /**
     * @param cfg system configuration
     * @param events shared event queue
     * @param mem memory controller
     */
    L2Cache(const SystemConfig &cfg, EventQueue &events,
            MemoryController &mem);

    /** Install the per-system response path (fan-out by thread id). */
    void setResponseHandler(ResponseHandler h);

    /**
     * @name Fused crossbar transit lane
     *
     * The crossbar latency is a configuration constant and arrivals
     * are pure bank-queue writes consumed by later bank ticks, so the
     * lane replays the event path exactly from plain (bank, line,
     * thread, kind) records — no closure.  Counted: drains add to
     * eventsFired as the transit events they replace would.
     */
    /// @{
    struct TransitMsg
    {
        L2Bank *bank;
        Addr lineAddr;
        ThreadId thread;
        bool isStore;
        bool prefetch;
    };
    struct TransitSink
    {
        void
        operator()(Cycle when, const TransitMsg &m) const
        {
            if (m.isStore)
                m.bank->storeArrive(m.thread, m.lineAddr, when);
            else
                m.bank->loadArrive(m.thread, m.lineAddr, when,
                                   m.prefetch);
        }
    };
    using TransitLane = DataLane<TransitMsg, TransitSink>;

    /** Route crossbar transits through @p lane (nullptr to revert). */
    void setTransitLane(TransitLane *lane) { transitLane = lane; }
    /// @}

    /**
     * Issue a store from core @p t.
     *
     * @return false if the target bank's gathering buffer is full; the
     *         core must stall and retry
     */
    bool store(ThreadId t, Addr addr, Cycle now);

    /** Issue a load (L1 miss) from core @p t. */
    void load(ThreadId t, Addr addr, Cycle now,
              bool prefetch = false);

    void tick(Cycle now) override;

    /** Quiescence hint: the earliest nextWork across all banks. */
    Cycle nextWork(Cycle now) const override;

    /** @return bank index servicing @p addr. */
    unsigned bankOf(Addr addr) const;

    /** @return number of banks. */
    unsigned numBanks() const { return static_cast<unsigned>(
        banks.size()); }

    /** @return bank @p i. */
    L2Bank &bank(unsigned i) { return *banks.at(i); }
    const L2Bank &bank(unsigned i) const { return *banks.at(i); }

    /** @return true when all banks are idle. */
    bool quiesced() const;

    /** @return true while any bank holds work for thread @p t. */
    bool threadHasWork(ThreadId t) const;

    /** Mean utilization of a resource across banks over @p window. */
    double tagUtilization(Cycle window) const;
    double dataUtilization(Cycle window) const;
    double busUtilization(Cycle window) const;

    /** Mean accumulated busy cycles per bank (for interval deltas). */
    double tagBusyMean() const;
    double dataBusyMean() const;
    double busBusyMean() const;

    /** Aggregate per-thread request counts across banks. */
    std::uint64_t readCount(ThreadId t) const;
    std::uint64_t writeCount(ThreadId t) const;
    std::uint64_t missCount(ThreadId t) const;

    /** Aggregate store-gathering statistics across banks. */
    std::uint64_t storesTotal(ThreadId t) const;
    std::uint64_t storesGathered(ThreadId t) const;

    /** Update thread @p t's bandwidth share on every bank. */
    void setBandwidthShare(ThreadId t, double phi);

  private:
    const SystemConfig &cfg;
    EventQueue &events;
    std::vector<std::unique_ptr<L2Bank>> banks;
    TransitLane *transitLane = nullptr; //!< fused crossbar transit
};

} // namespace vpc

#endif // VPC_CACHE_L2_CACHE_HH
