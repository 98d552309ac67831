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

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"


namespace vpc
{

/**
 * Default for SystemConfig::kernelFuse: on unless the VPC_NO_FUSE
 * environment variable is set non-empty and not "0".  Read once per
 * process — an escape hatch, not a per-run switch — and folded into
 * the default rather than into normalize() so a config decoded from a
 * spooled job keeps the value its encoder hashed (the job codec embeds
 * and verifies the config digest across processes whose environments
 * may differ).
 */
inline bool
defaultKernelFuse()
{
    static const bool fuse = [] {
        const char *env = std::getenv("VPC_NO_FUSE");
        return env == nullptr || *env == '\0' ||
               (env[0] == '0' && env[1] == '\0');
    }();
    return fuse;
}

/** Which policy drives the shared L2 resource arbiters. */
enum class ArbiterPolicy
{
    Fcfs,      //!< first-come first-serve across all threads
    RowFcfs,   //!< reads-over-writes, then FCFS (private-cache policy)
    RoundRobin,//!< cycle round-robin across threads
    Vpc        //!< fair-queuing VPC arbiter (the paper's contribution)
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
     * Fuse fixed-latency event chains (sim/fused_chain.hh): L1 hit
     * completions, crossbar transits and critical-word responses run
     * through FIFO lanes drained each cycle instead of the timing
     * wheel.  Model results are byte-identical either way — the
     * committed goldens in tests/golden/ check it — so turning this
     * off (the VPC_NO_FUSE=1 escape hatch) is purely a verification
     * and debugging aid.
     */
    bool kernelFuse = defaultKernelFuse();

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
        if (numProcessors == 0)
            return "numProcessors must be > 0";
        if (!isPowerOf2(l2.lineBytes) || !isPowerOf2(l2.banks))
            return "L2 line size and bank count must be powers of 2";
        if (l2.ways == 0)
            return "L2 must have at least one way";
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
        std::uint64_t l1_divisor =
            static_cast<std::uint64_t>(l1.ways) * l1.lineBytes;
        if (l1.sizeBytes % l1_divisor != 0 ||
            !isPowerOf2(l1.sizeBytes / l1_divisor)) {
            return format("L1 geometry gives {} sets; must be a "
                          "non-zero power of 2",
                          l1.sizeBytes / l1_divisor);
        }
        if (shares.size() != numProcessors)
            return format("shares.size() ({}) != numProcessors ({})",
                          shares.size(), numProcessors);
        double phi_sum = 0.0, beta_sum = 0.0;
        for (std::size_t t = 0; t < shares.size(); ++t) {
            const QosShare &s = shares[t];
            if (s.phi < 0.0 || s.phi > 1.0 ||
                s.beta < 0.0 || s.beta > 1.0) {
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

} // namespace vpc

#endif // VPC_SIM_CONFIG_HH
