/**
 * @file
 * System configuration (Table 1 of the paper) and QoS allocations.
 *
 * Defaults model the 2 GHz 4-processor CMP of Table 1.  All latencies
 * are in core (processor) cycles.  Bandwidth of the L2 arrays is the
 * reciprocal of their latency (the arrays are not pipelined), exactly as
 * the paper specifies.
 */

#ifndef VPC_SIM_CONFIG_HH
#define VPC_SIM_CONFIG_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"


namespace vpc
{

/**
 * Which policy drives the shared L2 resource arbiters.  The values
 * are explicit because they travel in run digests and job records; 2
 * belonged to a retired round-robin policy and must never be reused.
 */
enum class ArbiterPolicy
{
    Fcfs = 0,    //!< first-come first-serve across all threads
    RowFcfs = 1, //!< reads-over-writes, then FCFS (private-cache policy)
    Vpc = 3      //!< fair-queuing VPC arbiter (the paper's contribution)
};

/** Which replacement policy manages shared L2 capacity. */
enum class CapacityPolicy
{
    Lru,       //!< unpartitioned global LRU
    Vpc,       //!< VPC capacity manager (way partitioning, Section 4.2)
    /**
     * Flexible whole-cache occupancy partitioning -- the class of
     * manager Section 4.3 contrasts with way partitioning (better
     * average use of capacity, but no per-set guarantee and hence no
     * performance monotonicity).
     */
    GlobalOccupancy
};

/**
 * @return whether @p p is an ArbiterPolicy enumerator.  A decoded job
 * record can carry any integer in a policy field.
 */
inline bool
isArbiterPolicy(ArbiterPolicy p)
{
    switch (p) {
      case ArbiterPolicy::Fcfs:
      case ArbiterPolicy::RowFcfs:
      case ArbiterPolicy::Vpc:
        return true;
    }
    return false;
}

/** @return whether @p p is a CapacityPolicy enumerator. */
inline bool
isCapacityPolicy(CapacityPolicy p)
{
    switch (p) {
      case CapacityPolicy::Lru:
      case CapacityPolicy::Vpc:
      case CapacityPolicy::GlobalOccupancy:
        return true;
    }
    return false;
}

/** Per-processor core parameters (Table 1, top half). */
struct CoreConfig
{
    unsigned dispatchWidth = 5;    //!< instrs per dispatch group
    unsigned robEntries = 100;     //!< 20 groups x 5 instructions
    unsigned retireWidth = 5;
    unsigned loadQueueEntries = 32;
    unsigned storeQueueEntries = 32;
    unsigned lsuPorts = 2;         //!< load issues per cycle
    unsigned storeCommitWidth = 1; //!< stores committed per cycle
    /**
     * Probability an issue attempt of an L1-*missing* load is rejected
     * by the LSU and retried (the 970's LSU reject / LMQ allocation
     * mechanism): loads enter the L2 out of order and the sustained
     * miss-issue rate is capped at lsuPorts * (1 - p) = 0.4/cycle,
     * which reproduces the Loads microbenchmark's 100% utilization on
     * two banks but ~80% on four (Figure 5).
     */
    double lsuRejectProb = 0.8;
};

/** Stride prefetcher configuration (see cache/prefetcher.hh). */
struct PrefetchConfig
{
    bool enable = false;     //!< paper baseline: prefetchers disabled
    unsigned streams = 4;    //!< tracked miss streams
    unsigned degree = 2;     //!< prefetches issued per confirmation
    unsigned confidence = 2; //!< confirmations before issuing
};

/** Private L1 data cache parameters. */
struct L1Config
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned ways = 4;
    unsigned lineBytes = 64;
    Cycle hitLatency = 2;
    unsigned mshrs = 16;           //!< outstanding misses (D-cache)
    PrefetchConfig prefetch;       //!< disabled by default (Table 1)
};

/** Shared L2 cache parameters (per Table 1). */
struct L2Config
{
    unsigned banks = 2;
    std::uint64_t sizeBytes = 16ULL * 1024 * 1024; //!< total, all banks
    unsigned ways = 32;
    unsigned lineBytes = 64;
    Cycle tagLatency = 4;          //!< core cycles per tag access
    unsigned tagWriteAccesses = 2; //!< tag-state ECC read-modify-write
    Cycle dataLatency = 8;         //!< core cycles per data-array read
    unsigned dataWriteAccesses = 2;//!< ECC read-modify-write (Sec. 3.1)
    Cycle busBeatCycles = 2;       //!< 16B beat at 1/2 core frequency
    unsigned busBytes = 16;        //!< data bus width
    /**
     * Full-line bus occupancy override in cycles; 0 derives it as
     * busBeatCycles * (lineBytes / busBytes).  Used by the private-
     * equivalent machine (Section 5.3) whose 1/phi-scaled occupancy
     * is not a whole number of beats.
     */
    Cycle busOccupancyOverride = 0;
    Cycle interconnectLatency = 2; //!< crossbar request latency
    unsigned stateMachinesPerThread = 8; //!< controller SMs / thread / bank
    unsigned sgbEntriesPerThread = 8;    //!< store gathering buffer
    unsigned sgbHighWater = 6;           //!< retire-at-6 policy
    unsigned readClaimEntries = 8;

    /** @return number of sets per bank. */
    std::uint64_t
    setsPerBank(unsigned num_banks_override = 0) const
    {
        unsigned b = num_banks_override ? num_banks_override : banks;
        std::uint64_t per_bank = sizeBytes / b;
        return per_bank / (static_cast<std::uint64_t>(ways) * lineBytes);
    }
};

/** Per-thread private DDR2-800 channel parameters. */
struct MemConfig
{
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    unsigned transactionEntries = 16; //!< per-thread transaction buffer
    unsigned writeEntries = 8;        //!< per-thread write buffer
    // DDR2-800-5-5-5 on a 2 GHz core: 1 DRAM cycle = 5 core cycles.
    Cycle tRcd = 25;   //!< ACT->READ
    Cycle tCl = 25;    //!< READ->data
    Cycle tRp = 25;    //!< PRE->ACT
    Cycle tBurst = 20; //!< 64B over a 64-bit DDR bus (4 DRAM cycles)
    Cycle tWr = 25;    //!< write recovery before precharge
    Cycle ctrlLatency = 10; //!< controller pipeline overhead each way

    /**
     * Share one SDRAM channel among all threads instead of giving
     * each thread a private channel.  The paper's evaluation uses
     * private channels to isolate cache effects; the shared mode
     * implements the companion FQ memory system of Nesbit et al.
     * (Section 2.1) so the VPM framework extends across subsystems.
     */
    bool sharedChannel = false;
    /**
     * Transaction scheduling policy for the shared channel: Fcfs is
     * the baseline (equivalent to FR-FCFS under a closed-page
     * policy), Vpc is the fair-queuing scheduler with per-thread
     * bandwidth shares (taken from SystemConfig::shares).
     */
    ArbiterPolicy schedulerPolicy = ArbiterPolicy::Fcfs;
};

/**
 * QoS allocation for one thread: a bandwidth share (phi) applied to the
 * tag array, data array and data bus, and a capacity share (beta)
 * applied to the cache ways.
 */
struct QosShare
{
    double phi = 0.0;  //!< bandwidth share in [0, 1]
    double beta = 0.0; //!< capacity share in [0, 1]
};

/**
 * Runtime verification layer configuration (src/verify/): invariant
 * auditing, fault injection and the forward-progress watchdog.  All
 * off by default; when everything is off no auditor is installed and
 * the simulator hot path pays a single predictable branch.
 */
struct VerifyConfig
{
    /**
     * Paranoia level: 0 = off, 1 = audit every auditInterval cycles,
     * >= 2 = audit every cycle.
     */
    unsigned paranoid = 0;
    /** Cycles between audits at paranoid level 1. */
    Cycle auditInterval = 64;
    /**
     * Forward-progress watchdog: panic (with a structured state dump)
     * when a thread with outstanding requests retires nothing for this
     * many cycles.  0 disables the watchdog.
     */
    Cycle watchdogCycles = 0;
    /**
     * Fault-injection rate in expected faults per cycle (0 disables).
     * Faults deterministically perturb live state -- dropped grants,
     * corrupted virtual-time registers, flipped line ownership -- to
     * prove the auditors fire.
     */
    double faultRate = 0.0;
    /** Seed for the fault injector's private RNG. */
    std::uint64_t faultSeed = 1;

    /** @return true when any verify machinery must be built. */
    bool
    enabled() const
    {
        return paranoid > 0 || watchdogCycles > 0 || faultRate > 0.0;
    }
};

/** Full system configuration. */
struct SystemConfig
{
    unsigned numProcessors = 4;
    CoreConfig core;
    L1Config l1;
    L2Config l2;
    MemConfig mem;

    ArbiterPolicy arbiterPolicy = ArbiterPolicy::Fcfs;
    CapacityPolicy capacityPolicy = CapacityPolicy::Vpc;

    /** Runtime verification layer (auditing / faults / watchdog). */
    VerifyConfig verify;

    /**
     * Let the simulation kernel fast-forward over provably quiescent
     * spans and skip ticks of idle components (see Ticking::nextWork).
     * Results are bit-identical either way — the differential tests
     * assert it — so turning this off (--no-skip) is purely a
     * verification and debugging aid.  Ignored (forced off) while an
     * auditor is installed, since audits are defined per cycle.
     */
    bool kernelSkip = true;

    /**
     * Attach the cycle-attribution profiler (--profile): per-component
     * host-time accounting for ticks and owned events, reported to
     * stderr (and into bench JSON) after the run.  Observe-only —
     * enabling it never changes any model statistic
     * (tests/system/profiler_test.cc asserts it).
     */
    bool profile = false;

    /**
     * Permit zero QoS shares under the VPC policies.  A thread with
     * phi = 0 (or a beta whose way quota rounds to zero) holds no
     * guarantee at all -- it is served purely from excess bandwidth /
     * capacity, and the private-equivalent machine L_i = L / phi_i it
     * is measured against is undefined.  validate() rejects such
     * shares for active threads unless this flag is set by callers
     * that deliberately model unallocated threads (the VPC controller
     * starts all threads unallocated; Figure 8's sweep endpoints give
     * one thread everything).
     */
    bool allowUnallocatedShares = false;

    /** Allow RoW reordering inside each thread's VPC arbiter buffer. */
    bool vpcIntraThreadRow = true;
    /** Apply Equation 6 (reset idle thread virtual time); ablation. */
    bool vpcIdleReset = true;
    /** Work-conserving excess distribution; ablation (Section 3.2). */
    bool vpcWorkConserving = true;

    /** Per-thread QoS shares; sized to numProcessors by validate(). */
    std::vector<QosShare> shares;

    /**
     * Optional per-thread L1 prefetcher override; empty means every
     * thread uses l1.prefetch.  Sized to numProcessors otherwise.
     */
    std::vector<PrefetchConfig> l1PrefetchPerThread;

    /** Fill defaulted fields in place (the shares vector); no checks. */
    void
    normalize()
    {
        if (shares.empty()) {
            // Default: equal allocation of everything.
            shares.assign(numProcessors,
                          QosShare{1.0 / numProcessors,
                                   1.0 / numProcessors});
        }
    }

    /**
     * @return "" when the (normalized) configuration is internally
     *         consistent, else a description of the first problem.
     *         Never exits — the service layer uses this to reject
     *         malformed spooled jobs without killing the daemon.
     */
    std::string
    check() const
    {
        if (!isArbiterPolicy(arbiterPolicy))
            return format("unknown arbiter policy {}",
                          static_cast<int>(arbiterPolicy));
        if (!isArbiterPolicy(mem.schedulerPolicy))
            return format("unknown memory scheduler policy {}",
                          static_cast<int>(mem.schedulerPolicy));
        if (!isCapacityPolicy(capacityPolicy))
            return format("unknown capacity policy {}",
                          static_cast<int>(capacityPolicy));
        if (numProcessors == 0)
            return "numProcessors must be > 0";
        if (!isPowerOf2(l2.lineBytes) || !isPowerOf2(l2.banks))
            return "L2 line size and bank count must be powers of 2";
        if (l2.ways == 0)
            return "L2 must have at least one way";
        // CacheArray packs a set's way state into one 64-bit mask.
        if (l2.ways > 64)
            return format("L2 associativity {} exceeds 64 ways",
                          l2.ways);
        // The size must factor exactly into banks x sets x ways x
        // lines; a remainder silently truncates capacity, and a
        // non-power-of-2 set count breaks the mask-based set index.
        std::uint64_t l2_divisor = static_cast<std::uint64_t>(l2.banks) *
                                   l2.ways * l2.lineBytes;
        if (l2_divisor == 0 || l2.sizeBytes % l2_divisor != 0)
            return format("L2 size {} not divisible by banks*ways*line "
                          "({})", l2.sizeBytes, l2_divisor);
        if (!isPowerOf2(l2.setsPerBank()))
            return format("L2 geometry gives {} sets per bank; must be "
                          "a non-zero power of 2", l2.setsPerBank());
        // The L1 uses the same mask-based indexing; check it the same
        // way.
        if (!isPowerOf2(l1.lineBytes))
            return "L1 line size must be a power of 2";
        if (l1.ways == 0)
            return "L1 must have at least one way";
        if (l1.ways > 64)
            return format("L1 associativity {} exceeds 64 ways",
                          l1.ways);
        std::uint64_t l1_divisor =
            static_cast<std::uint64_t>(l1.ways) * l1.lineBytes;
        if (l1.sizeBytes % l1_divisor != 0 ||
            !isPowerOf2(l1.sizeBytes / l1_divisor)) {
            return format("L1 geometry gives {} sets; must be a "
                          "non-zero power of 2",
                          l1.sizeBytes / l1_divisor);
        }
        // The model's constructors stop the process on the values
        // below (the L2 bank divides the line by the bus width), and
        // a decoded job record can carry any of them.
        if (l2.tagLatency == 0 || l2.dataLatency == 0 ||
            l2.tagWriteAccesses == 0 || l2.dataWriteAccesses == 0)
            return "L2 tag and data array latencies and write access "
                   "counts must be > 0";
        if (l2.busBytes == 0 || l2.busBytes > l2.lineBytes ||
            l2.busBeatCycles == 0)
            return format("L2 data bus of {} B per {}-cycle beat cannot "
                          "carry a {} B line", l2.busBytes,
                          l2.busBeatCycles, l2.lineBytes);
        if (l2.sgbHighWater == 0 ||
            l2.sgbHighWater > l2.sgbEntriesPerThread)
            return format("store gathering buffer high-water mark {} "
                          "invalid for {} entries", l2.sgbHighWater,
                          l2.sgbEntriesPerThread);
        if (l1.prefetch.enable && l1.prefetch.streams == 0)
            return "L1 prefetcher enabled with zero streams";
        if (mem.ranksPerChannel == 0 || mem.banksPerRank == 0)
            return "memory channel needs at least one rank and one "
                   "bank per rank";
        // The VPC arbiter keeps its active threads in one 64-bit mask
        // and needs a non-zero service time; the shared channel's VPC
        // scheduler is one, serving line bursts.
        bool vpc_mem = mem.sharedChannel &&
                       mem.schedulerPolicy == ArbiterPolicy::Vpc;
        if ((arbiterPolicy == ArbiterPolicy::Vpc || vpc_mem) &&
            numProcessors > 64)
            return format("{} threads exceed the VPC arbiter's "
                          "64-thread limit", numProcessors);
        if (vpc_mem && mem.tBurst == 0)
            return "the VPC memory scheduler needs tBurst > 0";
        // Caps on the values that size the model's allocations, so a
        // decoded job record cannot make the daemon allocate without
        // bound.  DESIGN.md 5g explains the numbers.
        if (numProcessors > 256 || l2.banks > 64)
            return format("{} processors or {} L2 banks exceed the caps "
                          "of 256 and 64", numProcessors, l2.banks);
        if (l1.sizeBytes / l1.lineBytes > 16 * 1024 ||
            l2.sizeBytes / l2.lineBytes > 4 * 1024 * 1024)
            return "cache capacity exceeds the caps of 16Ki L1 lines and "
                   "4Mi L2 lines";
        if (l1.mshrs > 256 || core.robEntries > 1024 ||
            core.loadQueueEntries > 1024 ||
            mem.transactionEntries > 1024 || mem.writeEntries > 1024 ||
            l2.stateMachinesPerThread > 64 || l2.sgbEntriesPerThread > 64 ||
            mem.ranksPerChannel > 64 || mem.banksPerRank > 64 ||
            l1.prefetch.streams > 64)
            return "buffer sizes exceed the caps of 256 MSHRs; 1024 "
                   "ROB, load queue, transaction or write entries; 64 L2 "
                   "state machines, store gathering entries, DRAM ranks, "
                   "banks per rank or prefetch streams";
        // Written so that NaN fails too: it compares false both ways.
        if (!(0.0 <= core.lsuRejectProb && core.lsuRejectProb <= 1.0))
            return format("LSU reject probability {} out of [0, 1]",
                          core.lsuRejectProb);
        if (!(0.0 <= verify.faultRate && verify.faultRate <= 1.0))
            return format("fault rate {} out of [0, 1]",
                          verify.faultRate);
        if (shares.size() != numProcessors)
            return format("shares.size() ({}) != numProcessors ({})",
                          shares.size(), numProcessors);
        double phi_sum = 0.0, beta_sum = 0.0;
        for (std::size_t t = 0; t < shares.size(); ++t) {
            const QosShare &s = shares[t];
            if (!(0.0 <= s.phi && s.phi <= 1.0 &&
                  0.0 <= s.beta && s.beta <= 1.0)) {
                return "QoS shares must lie in [0, 1]";
            }
            // A zero share under the VPC policies gives the thread no
            // guarantee at all, and its private-equivalent reference
            // machine (L_i = L / phi_i) is undefined -- almost always
            // a configuration mistake rather than an intent.
            if (!allowUnallocatedShares &&
                arbiterPolicy == ArbiterPolicy::Vpc && s.phi == 0.0) {
                return format(
                    "thread {} has phi = 0 under the VPC arbiter: its "
                    "bandwidth guarantee and private-equivalent "
                    "latency L/phi are undefined (set "
                    "allowUnallocatedShares to model deliberately "
                    "unallocated threads)", t);
            }
            if (!allowUnallocatedShares &&
                capacityPolicy == CapacityPolicy::Vpc &&
                s.beta * l2.ways < 1.0) {
                return format(
                    "thread {} has beta = {} under the VPC capacity "
                    "manager: its way quota floor(beta * {}) rounds "
                    "to zero ways (set allowUnallocatedShares to "
                    "model deliberately unallocated threads)",
                    t, s.beta, l2.ways);
            }
            phi_sum += s.phi;
            beta_sum += s.beta;
        }
        if (phi_sum > 1.0 + 1e-9)
            return format("bandwidth over-allocated: sum(phi) = {}",
                          phi_sum);
        if (beta_sum > 1.0 + 1e-9)
            return format("capacity over-allocated: sum(beta) = {}",
                          beta_sum);
        if (!l1PrefetchPerThread.empty() &&
            l1PrefetchPerThread.size() != numProcessors) {
            return format("l1PrefetchPerThread.size() ({}) != "
                          "numProcessors ({})",
                          l1PrefetchPerThread.size(), numProcessors);
        }
        for (const PrefetchConfig &p : l1PrefetchPerThread) {
            if (p.enable && p.streams == 0)
                return "L1 prefetcher enabled with zero streams";
            if (p.streams > 64)
                return "L1 prefetcher streams exceed the cap of 64";
        }
        return "";
    }

    /**
     * Check internal consistency and normalize the shares vector.
     * Calls vpc_fatal on user errors (over-allocation, bad sizes);
     * callers that must survive bad configs (the sweep daemon) use
     * normalize() + check() instead.
     */
    void
    validate()
    {
        normalize();
        std::string err = check();
        if (!err.empty())
            vpc_fatal("{}", err);
    }

    /** @return thread @p t's effective L1 configuration. */
    L1Config
    l1ConfigFor(ThreadId t) const
    {
        L1Config out = l1;
        if (!l1PrefetchPerThread.empty())
            out.prefetch = l1PrefetchPerThread.at(t);
        return out;
    }
};

/**
 * Call @p f on each field of @p p in declaration order: the
 * SystemConfig walk below visits l1.prefetch with it, and the run
 * digest and the job codec each l1PrefetchPerThread entry.
 */
template <typename C, typename F>
    requires std::same_as<std::remove_const_t<C>, PrefetchConfig>
void
forEachField(C &p, F &&f)
{
    auto &[enable, streams, degree, confidence] = p;
    f(enable);
    f(streams);
    f(degree);
    f(confidence);
}

/**
 * Call @p f once on every scalar of @p cfg that can change a model
 * statistic or a kernel counter, in declaration order.  This is the
 * one list of the config: the run-cache digest hashes what it visits,
 * and the job codec encodes and decodes through it.  C is SystemConfig
 * or const SystemConfig.  The structured bindings must name every
 * member, so a member added to a config struct without being named
 * here stops the build.  The per-thread vectors are not scalars; the
 * digest and the codec carry them on their own.
 */
template <typename C, typename F>
    requires std::same_as<std::remove_const_t<C>, SystemConfig>
void
forEachField(C &cfg, F &&f)
{
    auto each = [&f](auto &...fields) { (f(fields), ...); };
    // `profile` is not visited: it is observe-only, and
    // RunDigest.ChangesUnderAnyResultAffectingPerturbation pins that
    // it does not change the run-cache key.
    auto &[numProcessors, core, l1, l2, mem, arbiterPolicy,
           capacityPolicy, verify, kernelSkip, profile,
           allowUnallocatedShares, vpcIntraThreadRow, vpcIdleReset,
           vpcWorkConserving, shares, l1PrefetchPerThread] = cfg;
    f(numProcessors);
    {
        auto &[dispatchWidth, robEntries, retireWidth, loadQueueEntries,
               storeQueueEntries, lsuPorts, storeCommitWidth,
               lsuRejectProb] = core;
        each(dispatchWidth, robEntries, retireWidth, loadQueueEntries,
             storeQueueEntries, lsuPorts, storeCommitWidth, lsuRejectProb);
    }
    {
        auto &[sizeBytes, ways, lineBytes, hitLatency, mshrs,
               prefetch] = l1;
        each(sizeBytes, ways, lineBytes, hitLatency, mshrs);
        forEachField(prefetch, f);
    }
    {
        auto &[banks, sizeBytes, ways, lineBytes, tagLatency,
               tagWriteAccesses, dataLatency, dataWriteAccesses,
               busBeatCycles, busBytes, busOccupancyOverride,
               interconnectLatency, stateMachinesPerThread,
               sgbEntriesPerThread, sgbHighWater, readClaimEntries] = l2;
        each(banks, sizeBytes, ways, lineBytes, tagLatency,
             tagWriteAccesses, dataLatency, dataWriteAccesses,
             busBeatCycles, busBytes, busOccupancyOverride,
             interconnectLatency, stateMachinesPerThread,
             sgbEntriesPerThread, sgbHighWater, readClaimEntries);
    }
    {
        auto &[ranksPerChannel, banksPerRank, transactionEntries,
               writeEntries, tRcd, tCl, tRp, tBurst, tWr, ctrlLatency,
               sharedChannel, schedulerPolicy] = mem;
        each(ranksPerChannel, banksPerRank, transactionEntries,
             writeEntries, tRcd, tCl, tRp, tBurst, tWr, ctrlLatency,
             sharedChannel, schedulerPolicy);
    }
    each(arbiterPolicy, capacityPolicy);
    {
        auto &[paranoid, auditInterval, watchdogCycles, faultRate,
               faultSeed] = verify;
        each(paranoid, auditInterval, watchdogCycles, faultRate,
             faultSeed);
    }
    each(kernelSkip, allowUnallocatedShares, vpcIntraThreadRow,
         vpcIdleReset, vpcWorkConserving);
}

} // namespace vpc

#endif // VPC_SIM_CONFIG_HH
