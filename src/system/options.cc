#include "system/options.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "sim/format.hh"
#include "workload/microbench.hh"
#include "workload/spec2000.hh"
#include "workload/trace.hh"

namespace vpc
{

namespace
{

/** Idle filler: pure compute. */
struct IdleWorkload : Workload
{
    MicroOp next() override { return MicroOp{}; }
    void
    nextBlock(std::span<MicroOp> out) override
    {
        std::fill(out.begin(), out.end(), MicroOp{});
    }
    std::string name() const override { return "idle"; }
    std::unique_ptr<Workload> clone(std::uint64_t) const override
    {
        return std::make_unique<IdleWorkload>();
    }
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

bool
parseDoubles(const std::string &s, std::vector<double> &out,
             std::string &err)
{
    for (const std::string &item : splitCommas(s)) {
        try {
            out.push_back(std::stod(item));
        } catch (const std::exception &) {
            err = format("bad number '{}'", item);
            return false;
        }
    }
    return true;
}

bool
parseU64(const std::string &s, std::uint64_t &out, std::string &err)
{
    try {
        out = std::stoull(s);
        return true;
    } catch (const std::exception &) {
        err = format("bad integer '{}'", s);
        return false;
    }
}

} // namespace

std::unique_ptr<Workload>
makeWorkloadFromSpec(const std::string &spec, Addr base_addr,
                     std::uint64_t seed, std::string &error_out)
{
    if (spec == "loads")
        return std::make_unique<LoadsBenchmark>(base_addr);
    if (spec == "stores")
        return std::make_unique<StoresBenchmark>(base_addr);
    if (spec == "idle")
        return std::make_unique<IdleWorkload>();
    if (spec.rfind("trace:", 0) == 0)
        return std::make_unique<TraceWorkload>(spec.substr(6),
                                               base_addr);
    const auto &names = spec2000Names();
    if (std::find(names.begin(), names.end(), spec) != names.end())
        return makeSpec2000(spec, base_addr, seed);
    error_out = format("unknown workload '{}' (try loads, stores, "
                       "idle, trace:<path>, or a SPEC name)", spec);
    return nullptr;
}

std::vector<std::unique_ptr<Workload>>
SimOptions::buildWorkloads() const
{
    std::vector<std::unique_ptr<Workload>> out;
    for (std::size_t t = 0; t < workloadSpecs.size(); ++t) {
        std::string err;
        auto wl = makeWorkloadFromSpec(workloadSpecs[t],
                                       threadBaseAddr(
                                           static_cast<unsigned>(t)),
                                       seed + t, err);
        if (!wl)
            vpc_fatal("{}", err);
        out.push_back(std::move(wl));
    }
    return out;
}

RunJob
SimOptions::buildRunJob() const
{
    RunJob job;
    job.config = config;
    for (std::size_t t = 0; t < workloadSpecs.size(); ++t) {
        job.workloads.push_back(
            WorkloadKey{workloadSpecs[t],
                        threadBaseAddr(static_cast<unsigned>(t)),
                        seed + t});
    }
    job.warmup = warmup;
    job.measure = measure;
    return job;
}

std::string
simUsage()
{
    return
        "vpcsim -- Virtual Private Caches simulator driver\n"
        "\n"
        "  --workload=a,b,...   one spec per processor: loads, stores,\n"
        "                       idle, trace:<path>, or a SPEC 2000 name\n"
        "                       (art, mcf, swim, ...)\n"
        "  --arbiter=POLICY     vpc | fcfs | row | rr   (default fcfs)\n"
        "  --capacity=POLICY    vpc | lru | occupancy   (default vpc)\n"
        "  --phi=p0,p1,...      bandwidth shares (default: equal)\n"
        "  --beta=b0,b1,...     capacity shares  (default: equal)\n"
        "  --banks=N            L2 banks (default 2)\n"
        "  --warmup=N           warmup cycles (default 100000)\n"
        "  --cycles=N           measured cycles (default 400000)\n"
        "  --seed=N             workload seed (default 1)\n"
        "  --prefetch           enable the L1 stride prefetchers\n"
        "  --shared-memory      one shared DDR2 channel (FQ when\n"
        "                       --arbiter=vpc, else FCFS)\n"
        "  --stats              dump the full statistics report\n"
        "                       (bypasses --run-cache: the report\n"
        "                       needs a live system)\n"
        "  --run-cache=DIR      memoize results on disk: identical\n"
        "                       invocations replay the stored record\n"
        "                       instead of simulating, byte-identical\n"
        "                       stdout either way.  Keys cover config,\n"
        "                       workloads, seeds and run lengths;\n"
        "                       trace workloads key by path, so stale\n"
        "                       records must be cleared when a trace\n"
        "                       file is rewritten in place\n"
        "  --profile            attribute host time to components:\n"
        "                       per-component tick/event time and\n"
        "                       counts, reported to stderr after the\n"
        "                       run (observe-only; model results are\n"
        "                       unchanged)\n"
        "  --no-skip            disable kernel quiescence skipping and\n"
        "                       run the naive cycle loop (results are\n"
        "                       identical; useful for differential\n"
        "                       testing and kernel debugging)\n"
        "  --paranoid[=L]       runtime invariant auditing: level 1\n"
        "                       audits every 64 cycles, level >= 2\n"
        "                       every cycle (default off)\n"
        "  --watchdog=N         panic with a state dump when a thread\n"
        "                       with outstanding requests retires\n"
        "                       nothing for N cycles (default off)\n"
        "  --inject-faults=R[,S]  deterministically inject faults at\n"
        "                       expected rate R per cycle with seed S\n"
        "                       (proves the auditors fire)\n"
        "  --help               this text\n";
}

std::optional<SimOptions>
parseSimOptions(const std::vector<std::string> &args,
                std::string &error_out)
{
    SimOptions opts;
    std::vector<double> phis, betas;

    for (const std::string &arg : args) {
        std::string key = arg, value;
        std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        }

        if (key == "--workload") {
            opts.workloadSpecs = splitCommas(value);
        } else if (key == "--arbiter") {
            if (value == "vpc") {
                opts.config.arbiterPolicy = ArbiterPolicy::Vpc;
            } else if (value == "fcfs") {
                opts.config.arbiterPolicy = ArbiterPolicy::Fcfs;
            } else if (value == "row") {
                opts.config.arbiterPolicy = ArbiterPolicy::RowFcfs;
            } else if (value == "rr") {
                opts.config.arbiterPolicy = ArbiterPolicy::RoundRobin;
            } else {
                error_out = format("unknown arbiter '{}'", value);
                return std::nullopt;
            }
        } else if (key == "--capacity") {
            if (value == "vpc") {
                opts.config.capacityPolicy = CapacityPolicy::Vpc;
            } else if (value == "lru") {
                opts.config.capacityPolicy = CapacityPolicy::Lru;
            } else if (value == "occupancy") {
                opts.config.capacityPolicy =
                    CapacityPolicy::GlobalOccupancy;
            } else {
                error_out = format("unknown capacity policy '{}'",
                                   value);
                return std::nullopt;
            }
        } else if (key == "--phi") {
            if (!parseDoubles(value, phis, error_out))
                return std::nullopt;
        } else if (key == "--beta") {
            if (!parseDoubles(value, betas, error_out))
                return std::nullopt;
        } else if (key == "--banks") {
            std::uint64_t n;
            if (!parseU64(value, n, error_out))
                return std::nullopt;
            opts.config.l2.banks = static_cast<unsigned>(n);
        } else if (key == "--warmup") {
            if (!parseU64(value, opts.warmup, error_out))
                return std::nullopt;
        } else if (key == "--cycles") {
            if (!parseU64(value, opts.measure, error_out))
                return std::nullopt;
        } else if (key == "--seed") {
            if (!parseU64(value, opts.seed, error_out))
                return std::nullopt;
        } else if (key == "--prefetch") {
            opts.config.l1.prefetch.enable = true;
        } else if (key == "--shared-memory") {
            opts.config.mem.sharedChannel = true;
        } else if (key == "--stats") {
            opts.dumpStats = true;
        } else if (key == "--run-cache") {
            if (value.empty()) {
                error_out = "--run-cache needs a directory";
                return std::nullopt;
            }
            opts.runCacheDir = value;
        } else if (key == "--profile") {
            opts.config.profile = true;
        } else if (key == "--no-skip") {
            opts.config.kernelSkip = false;
        } else if (key == "--paranoid") {
            if (value.empty()) {
                opts.config.verify.paranoid = 1;
            } else {
                std::uint64_t level;
                if (!parseU64(value, level, error_out))
                    return std::nullopt;
                opts.config.verify.paranoid =
                    static_cast<unsigned>(level);
            }
        } else if (key == "--watchdog") {
            if (!parseU64(value, opts.config.verify.watchdogCycles,
                          error_out)) {
                return std::nullopt;
            }
        } else if (key == "--inject-faults") {
            std::vector<std::string> parts = splitCommas(value);
            if (parts.empty() || parts.size() > 2) {
                error_out = "--inject-faults takes rate[,seed]";
                return std::nullopt;
            }
            try {
                opts.config.verify.faultRate = std::stod(parts[0]);
            } catch (const std::exception &) {
                error_out = format("bad fault rate '{}'", parts[0]);
                return std::nullopt;
            }
            if (opts.config.verify.faultRate < 0.0 ||
                opts.config.verify.faultRate > 1.0) {
                error_out = format("fault rate {} out of [0, 1]",
                                   parts[0]);
                return std::nullopt;
            }
            if (parts.size() == 2 &&
                !parseU64(parts[1], opts.config.verify.faultSeed,
                          error_out)) {
                return std::nullopt;
            }
        } else if (key == "--help") {
            error_out = simUsage();
            return std::nullopt;
        } else {
            error_out = format("unknown option '{}'\n\n{}", arg,
                               simUsage());
            return std::nullopt;
        }
    }

    if (opts.workloadSpecs.empty()) {
        error_out = "at least one --workload spec is required\n\n" +
                    simUsage();
        return std::nullopt;
    }
    opts.config.numProcessors =
        static_cast<unsigned>(opts.workloadSpecs.size());

    // Shares: explicit lists must match the processor count;
    // otherwise equal shares.
    unsigned n = opts.config.numProcessors;
    if (phis.empty())
        phis.assign(n, 1.0 / n);
    if (betas.empty())
        betas.assign(n, 1.0 / n);
    if (phis.size() != n || betas.size() != n) {
        error_out = format("--phi/--beta need {} entries", n);
        return std::nullopt;
    }
    opts.config.shares.clear();
    for (unsigned t = 0; t < n; ++t)
        opts.config.shares.push_back(QosShare{phis[t], betas[t]});

    // The shared-memory scheduler follows the cache arbiter choice.
    if (opts.config.mem.sharedChannel) {
        opts.config.mem.schedulerPolicy =
            opts.config.arbiterPolicy == ArbiterPolicy::Vpc
                ? ArbiterPolicy::Vpc
                : ArbiterPolicy::Fcfs;
    }

    double phi_sum = 0.0, beta_sum = 0.0;
    for (const QosShare &s : opts.config.shares) {
        phi_sum += s.phi;
        beta_sum += s.beta;
    }
    if (phi_sum > 1.0 + 1e-9 || beta_sum > 1.0 + 1e-9) {
        error_out = format("over-allocated: sum(phi)={}, sum(beta)={}",
                           phi_sum, beta_sum);
        return std::nullopt;
    }
    return opts;
}

} // namespace vpc
