/**
 * @file
 * Simplified out-of-order processor model.
 *
 * Captures the structural properties of Table 1's core that matter to
 * the cache study, without modeling individual functional units:
 *
 *  - a dispatch-group-organized reorder buffer (100 entries = 20 groups
 *    of 5) filled in order at the dispatch width;
 *  - load/store reorder queues bounding in-flight memory operations;
 *  - loads issued out of order through a fixed number of LSU ports,
 *    with MSHR-bounded memory-level parallelism and an LSU-reject
 *    mechanism that perturbs issue order (see CoreConfig);
 *  - program-order retirement at the retire width; stores commit at the
 *    head by writing through the L1 into the L2's store gathering
 *    buffers, stalling retirement when a buffer is full (the
 *    backpressure path that throttles the Stores microbenchmark);
 *  - single-cycle non-memory instructions.
 *
 * Instruction fetch is not modeled (the workloads are small loops that
 * always hit the I-cache, as in the paper's microbenchmarks).
 */

#ifndef VPC_CORE_CPU_HH
#define VPC_CORE_CPU_HH

#include <array>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/l2_cache.hh"
#include "sim/config.hh"
#include "sim/fused_chain.hh"
#include "sim/random.hh"
#include "sim/ring.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace vpc
{

/** One hardware thread's processor pipeline. */
class Cpu : public Ticking
{
  public:
    /**
     * @param cfg core parameters
     * @param thread hardware thread id
     * @param workload instruction stream (not owned)
     * @param l1 private L1 D-cache (not owned)
     * @param l2 shared L2 (not owned)
     */
    Cpu(const CoreConfig &cfg, ThreadId thread, Workload &workload,
        L1DCache &l1, L2Cache &l2);

    void tick(Cycle now) override;

    /**
     * Quiescence hint (see Ticking::nextWork).  The core sleeps only
     * when provably stalled on memory: the ROB head is a load still in
     * flight, no dispatched load is waiting to issue (a waiting load
     * consumes an LSU port and may draw from the RNG even when it ends
     * up rejected or blocked, so it keeps the core active), and
     * dispatch is structurally blocked with its next op already in the
     * fetch block buffer (an empty buffer means dispatch would refill
     * it from the workload).  The load-completion event flips the head
     * to Done, which makes the re-polled hint due again the same cycle
     * the naive loop would have retired it.
     */
    Cycle nextWork(Cycle now) const override;

    /** @return instructions retired so far. */
    std::uint64_t instrsRetired() const { return retired.value(); }

    /** @return loads retired so far. */
    std::uint64_t loadsRetired() const { return loads.value(); }

    /** @return stores retired so far. */
    std::uint64_t storesRetired() const { return stores.value(); }

    /** @return cycles retirement stalled on a full gathering buffer. */
    std::uint64_t storeStallCycles() const { return storeStalls.value(); }

    /** @return instructions per cycle over @p window cycles. */
    double
    ipc(Cycle window) const
    {
        return window == 0 ? 0.0
            : static_cast<double>(retired.value()) /
              static_cast<double>(window);
    }

    /** @return this thread's id. */
    ThreadId threadId() const { return thread; }

    /**
     * @name Fused L1 hit completion lane
     *
     * The hit hop is (constant hitLatency, one SeqNum to complete) —
     * pure data, no closure.  issueStage pushes a (due, seq) record
     * for every L1 hit, and the kernel's drain completes it at the
     * due cycle.  The system builder must register hitChain() with
     * the kernel (Simulator::addFusedChain); an unregistered lane is
     * never drained, so its hits never complete.
     */
    /// @{
    /** Drained-record consumer: completes the recorded load. */
    struct HitSink
    {
        Cpu *cpu;
        void
        operator()(Cycle, const SeqNum &seq) const
        {
            cpu->complete(seq);
        }
    };
    using HitLane = DataLane<SeqNum, HitSink>;

    /** @return the lane, for kernel registration (uncounted). */
    FusedChain *hitChain() { return &hitLane_; }
    /// @}

  private:
    enum class State
    {
        Waiting, //!< not yet issued
        Issued,  //!< access in flight
        Done     //!< result available; retirable
    };

    struct RobEntry
    {
        MicroOp op;
        State state = State::Waiting;
        SeqNum seq = 0;
        SeqNum prevLoadSeq = 0; //!< most recent older load (0 = none)
    };

    /**
     * Ops fetched per Workload::nextBlock() call.  One virtual call
     * (and, for generators, one string-free tight loop) is amortized
     * over this many dispatched ops; dependsOnPrevLoad is pre-decoded
     * into a side-array at refill so dispatch reads plain flags.
     */
    static constexpr std::size_t kFetchBlock = 128;

    /** Retire completed instructions in order; commit stores. */
    void retireStage(Cycle now);

    /** Issue ready loads through the LSU ports. */
    void issueStage(Cycle now);

    /** Dispatch new instructions from the fetch block buffer. */
    void dispatchStage(Cycle now);

    /** Refill the block buffer from the workload (pre-decodes deps). */
    void refillBlock();

    /** Mark the entry with sequence number @p seq complete. */
    void complete(SeqNum seq);

    /** @return true once @p entry's load dependence is satisfied. */
    bool depSatisfied(const RobEntry &entry) const;

    CoreConfig cfg;
    ThreadId thread;
    Workload &workload;
    L1DCache &l1;
    L2Cache &l2;
    Rng rng;
    Bernoulli lsuRejectB_; //!< cfg.lsuRejectProb in threshold form

    SmallRing<RobEntry> rob;
    /** @name Fetch block buffer (refilled via Workload::nextBlock) */
    /// @{
    std::array<MicroOp, kFetchBlock> fetchBlock_;
    /** Pre-decoded dependsOnPrevLoad flags (dispatch side-array). */
    std::array<std::uint8_t, kFetchBlock> fetchDeps_{};
    std::size_t fetchPos_ = 0; //!< next unconsumed op
    std::size_t fetchLen_ = 0; //!< valid ops in the buffer
    /// @}
    SeqNum nextSeq = 1;
    SeqNum lastLoadSeq = 0;    //!< seq of most recently dispatched load
    SeqNum oldestInRob = 1;    //!< seq of the ROB head (retire frontier)
    unsigned loadsInRob = 0;
    unsigned storesInRob = 0;
    /**
     * Dispatched loads not yet issued, in program order.  Exact
     * mirror of the Waiting loads in the ROB: dispatch appends, issue
     * compacts out the entries it issues (a Waiting load can neither
     * complete nor retire, so membership changes nowhere else).  The
     * issue stage visits the same loads in the same order as a ROB
     * walk would, without touching the non-load entries in between.
     */
    std::vector<SeqNum> waitQ_;

    HitLane hitLane_{/*counted=*/false, HitSink{this}};

    Counter retired;
    Counter loads;
    Counter stores;
    Counter storeStalls;
    Counter lsuRejects;
};

} // namespace vpc

#endif // VPC_CORE_CPU_HH
