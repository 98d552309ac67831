/**
 * @file
 * One bank of the shared L2 cache (Figure 2b of the paper).
 *
 * Request flow, mirroring Section 3.1:
 *
 *   core stores -> per-thread store gathering buffers
 *   core loads  -> per-thread load queues (checked against the SGB for
 *                  read-over-write dependences / RoW inversion)
 *   admission   -> round-robin across threads, line-conflict checked,
 *                  allocates a controller state machine (8 per thread)
 *   tag array   -> arbitrated; 4-cycle occupancy
 *   data array  -> arbitrated; 8-cycle reads, 16-cycle stores (ECC
 *                  read-modify-write), 8-cycle full-line fills
 *   data bus    -> arbitrated; 64B line over a 16B half-frequency bus
 *                  (8 core cycles; critical word after the first beat);
 *                  also carries fill data arriving from memory, so the
 *                  arbiter resolves array/memory collisions
 *   misses      -> per-thread private memory channel; on return the
 *                  state machine transfers the line to the core (bus)
 *                  and installs it (tag update + data write, with a
 *                  data-array read first when a dirty victim must be
 *                  written back).
 *
 * The three SharedResources each carry an arbiter built from the
 * configured policy (FCFS / RoW-FCFS / VPC), which is where the paper's
 * QoS mechanisms plug in.  The bank runs at 1/2 core frequency: it only
 * does work on even core cycles, and all resource occupancies are even
 * numbers of core cycles.
 */

#ifndef VPC_CACHE_L2_BANK_HH
#define VPC_CACHE_L2_BANK_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "arbiter/shared_resource.hh"
#include "cache/cache_array.hh"
#include "cache/store_gather_buffer.hh"
#include "mem/memory_controller.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fused_chain.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace vpc
{

/** One address-interleaved bank of the shared L2. */
class L2Bank
{
  public:
    /**
     * Invoked when a load's critical word reaches the requesting core
     * (crossbar return latency included).
     */
    using ResponseHandler =
        std::function<void(ThreadId t, Addr line_addr)>;

    /**
     * @param cfg full system configuration (L2 + QoS shares)
     * @param bank_index this bank's index
     * @param num_banks total banks (for set sizing)
     * @param num_threads hardware threads sharing the bank
     * @param events shared event queue
     * @param mem memory controller for misses and writebacks
     */
    L2Bank(const SystemConfig &cfg, unsigned bank_index,
           unsigned num_banks, unsigned num_threads,
           EventQueue &events, MemoryController &mem);

    /** Install the load-response path back to the cores. */
    void setResponseHandler(ResponseHandler h);

    /**
     * @name Fused response lane
     *
     * The critical word always trails the bus grant by exactly
     * busBeatCycles and the response handler is a pure L1/core-state
     * write, so the lane replays the event path exactly from plain
     * (bank, thread, line) records — no closure.  Counted: drains add
     * to eventsFired as the response events they replace would.
     */
    /// @{
    struct RespMsg
    {
        L2Bank *bank;
        ThreadId thread;
        Addr lineAddr;
    };
    struct RespSink
    {
        void
        operator()(Cycle, const RespMsg &m) const
        {
            m.bank->deliverResponse(m.thread, m.lineAddr);
        }
    };
    using ResponseLane = DataLane<RespMsg, RespSink>;

    /** Route responses through @p lane (nullptr to revert). */
    void setResponseLane(ResponseLane *lane) { respLane = lane; }

    /** Invoke the response handler (a drained lane record's body). */
    void
    deliverResponse(ThreadId t, Addr line_addr)
    {
        if (respond)
            respond(t, line_addr);
    }
    /// @}

    /**
     * Reserve store-buffer space for a store entering the crossbar.
     *
     * @return false if thread @p t's gathering buffer is full (the
     *         core must retry)
     */
    bool tryReserveStore(ThreadId t);

    /** Deliver a store that completed crossbar transit. */
    void storeArrive(ThreadId t, Addr line_addr, Cycle now);

    /** Deliver a load that completed crossbar transit. */
    void loadArrive(ThreadId t, Addr line_addr, Cycle now,
                    bool prefetch = false);

    /** Advance the bank one core cycle. */
    void tick(Cycle now);

    /**
     * Quiescence hint (see Ticking::nextWork): earliest cycle >= now
     * at which tick() could do observable work.  Always a cycle on the
     * bank's even (half-frequency) grid, or kCycleMax when every
     * queue is empty and every resource is drained.
     */
    Cycle nextWork(Cycle now) const;

    /** @return true once every queue, buffer and state machine is idle.*/
    bool quiesced() const;

    /**
     * @return true while thread @p t has work anywhere in this bank:
     *         a queued load, gathered stores, an active controller
     *         state machine, or a request pending in any arbiter.
     *         The forward-progress watchdog uses this to tell a
     *         stalled thread from an idle one.
     */
    bool threadHasWork(ThreadId t) const;

    /** @name Resources (stats / tests) */
    /// @{
    SharedResource &tagArray() { return *tagRes; }
    SharedResource &dataArray() { return *dataRes; }
    SharedResource &dataBus() { return *busRes; }
    const SharedResource &tagArray() const { return *tagRes; }
    const SharedResource &dataArray() const { return *dataRes; }
    const SharedResource &dataBus() const { return *busRes; }
    /// @}

    /** @return the functional tag/data state. */
    const CacheArray &array() const { return tags; }
    CacheArray &array() { return tags; }

    /** @return thread @p t's store gathering buffer. */
    const StoreGatherBuffer &sgb(ThreadId t) const { return sgbs.at(t); }

    /** @return L2 read requests admitted for thread @p t. */
    std::uint64_t readCount(ThreadId t) const;

    /** @return L2 write requests admitted for thread @p t. */
    std::uint64_t writeCount(ThreadId t) const;

    /** @return L2 misses for thread @p t. */
    std::uint64_t threadMissCount(ThreadId t) const;

    /** @return high-water mark of the read-claim queue. */
    std::size_t readClaimHighWater() const { return rcqHighWater; }

    /** Update thread @p t's bandwidth share on all three arbiters. */
    void setBandwidthShare(ThreadId t, double phi);

    /**
     * Update thread @p t's bandwidth shares per resource (the "full
     * generality" interface of Section 4: independent control
     * registers for the tag array, data array and data bus).
     */
    void setResourceShares(ThreadId t, double phi_tag,
                           double phi_data, double phi_bus);

    /**
     * Update thread @p t's capacity share.  Takes effect through
     * subsequent replacements; resident lines are not flushed.
     * No-op (with a warning) when the bank runs unpartitioned LRU.
     */
    void setCapacityShare(ThreadId t, double beta);

  private:
    /** Controller state machine: one in-flight L2 request. */
    struct Sm
    {
        bool busy = false;
        ThreadId thread = 0;
        Addr lineAddr = 0;
        bool isWrite = false;
        bool isPrefetch = false;  //!< prefetch-generated load
        bool fill = false;        //!< processing a memory return
        bool victimDirty = false; //!< fill displaced a dirty line
        Addr victimAddr = 0;
        unsigned pendingOps = 0;  //!< outstanding parallel legs
    };

    /** A load waiting for controller admission. */
    struct PendingLoad
    {
        Addr lineAddr;
        bool prefetch;
    };

    /** Per-thread request state in front of the controller. */
    struct ThreadPort
    {
        StoreGatherBuffer *sgb = nullptr;
        SmallRing<PendingLoad> loadQueue;
        Counter reads;
        Counter writes;
        Counter misses;
    };

    /** One admission attempt from thread @p t. @return admitted. */
    bool tryAdmit(ThreadId t, Cycle now);

    /** Allocate a state machine for thread @p t, or -1 if none free. */
    int allocSm(ThreadId t);

    /** Release state machine @p sm_idx when its last leg completes. */
    void finishLeg(unsigned sm_idx);

    /** @return true if an active SM already handles @p line_addr. */
    bool lineConflict(Addr line_addr) const;

    /** Issue the miss to memory, or queue for retry if it is full. */
    void startMemAccess(unsigned sm_idx, Cycle now);

    /** Memory data returned for the SM's line: start the fill legs. */
    void memReturn(unsigned sm_idx, Cycle now);

    /** Tag-array access completed for @p sm_idx. */
    void tagDone(unsigned sm_idx, Cycle done);

    /** Data-array access completed for @p sm_idx. */
    void dataDone(unsigned sm_idx, Cycle done);

    /** Data-bus transfer completed for @p sm_idx. */
    void busDone(unsigned sm_idx, Cycle start, Cycle done);

    /** Enqueue an arbitration request for @p sm_idx on @p res. */
    void requestResource(SharedResource &res, unsigned sm_idx,
                         bool is_write, Cycle now);

    const SystemConfig &cfg;
    unsigned bankIndex;
    unsigned numThreads;
    EventQueue &events;
    MemoryController &mem;

    CacheArray tags;
    std::vector<StoreGatherBuffer> sgbs;
    std::vector<ThreadPort> ports;
    std::vector<Sm> sms;
    std::vector<unsigned> smsInUse; //!< per-thread active SM count

    std::unique_ptr<SharedResource> tagRes;
    std::unique_ptr<SharedResource> dataRes;
    std::unique_ptr<SharedResource> busRes;

    /** SM indices waiting to re-enter data-array arbitration because
     *  the read-claim queue was full. */
    SmallRing<unsigned> deferredData;
    /** SM indices waiting for memory transaction-buffer space. */
    SmallRing<unsigned> deferredMem;
    /** Dirty victim addresses waiting for memory write-buffer space,
     *  with the evicting thread. */
    SmallRing<std::pair<ThreadId, Addr>> deferredWb;

    std::size_t rcqOccupancy = 0;
    std::size_t rcqHighWater = 0;
    ThreadId admissionRR = 0;
    SeqNum nextSeq = 0;
    ResponseHandler respond;
    ResponseLane *respLane = nullptr; //!< fused response path
};

} // namespace vpc

#endif // VPC_CACHE_L2_BANK_HH
