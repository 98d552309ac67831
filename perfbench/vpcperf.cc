/**
 * @file
 * vpcperf: the repository benchmark program (run it through run.py).
 *
 *   vpcperf --workload=NAME --seed=N --seconds=S --trace=0|1
 *           --workdir=DIR [--reference=FILE] [--commit=HASH]
 *
 * Workloads: headline_sweep, bank_contention, service_flood (see
 * sweeps.cc and flood.cc for what each runs and why).
 *
 * stdout: provenance lines ("# ..."), one "metric NAME VALUE UNIT"
 * line per figure, and as the last line one JSON object with the keys
 * correct, attempted, failed and metrics.  With --trace=0 the metrics
 * are the end-to-end ones, measured untraced; with --trace=1 they are
 * the per-layer ones, from a traced pass that follows an untraced one
 * (their wall-time ratio is trace.overhead_frac), and the spans go to
 * DIR/../trace-NAME-N.jsonl.
 *
 * Output check: every workload digests every model statistic it
 * produced.  The digest must repeat across passes, must not change
 * with tracing on, and must match the committed reference for the
 * seed when there is one.  Any mismatch fails the run (exit 1).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hh"
#include "sim/vec.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

std::string
firstLineOf(const char *path, const char *prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0)
            return line;
    }
    return "";
}

double
loadavg1m()
{
    std::ifstream in("/proc/loadavg");
    double v = -1.0;
    in >> v;
    return v;
}

/** @return "" when comparable, else why results are not. */
std::string
notComparableReason()
{
    std::string why;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why += "sanitizer build; ";
#endif
#if !defined(__OPTIMIZE__)
    why += "unoptimized build; ";
#endif
    const std::string type = VPCPERF_BUILD_TYPE;
    if (type != "RelWithDebInfo" && type != "Release")
        why += "build type " + type + "; ";
    return why;
}

void
printProvenance(const Options &opt, const std::string &commit,
                double load_before)
{
    std::string cpu = firstLineOf("/proc/cpuinfo", "model name");
    std::size_t colon = cpu.find(':');
    cpu = colon == std::string::npos ? "unknown" : cpu.substr(colon + 2);
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("# nproc %u\n", std::thread::hardware_concurrency());
    std::printf("# cpu %s\n", cpu.c_str());
#if defined(__clang__)
    std::printf("# compiler clang %s\n", __VERSION__);
#elif defined(__GNUC__)
    std::printf("# compiler gcc %s\n", __VERSION__);
#else
    std::printf("# compiler unknown\n");
#endif
    std::printf("# simd %s\n", vpc::vec::kIsaName);
    std::printf("# build_type %s\n", VPCPERF_BUILD_TYPE);
    std::printf("# commit %s\n", commit.c_str());
    std::printf("# loadavg_1m_before %.2f\n", load_before);
    const std::string why = notComparableReason();
    std::printf("# comparable %s\n",
                why.empty() ? "yes" : ("NO: " + why).c_str());
}

/**
 * @return the committed digest for (workload, seed), or 0 when the
 *         reference file has none.  Lines: "WORKLOAD SEED HEXDIGEST".
 */
std::uint64_t
referenceDigest(const std::string &path, const std::string &workload,
                std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string w, hex;
        unsigned long long s = 0;
        if (!(ls >> w >> s >> hex) || w != workload || s != seed)
            continue;
        return std::strtoull(hex.c_str(), nullptr, 16);
    }
    return 0;
}

void
printMetrics(const char *kind, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%s %s %.9g %s\n", kind, m.name.c_str(), m.value,
                    m.unit.c_str());
}

bool
parseFlag(const char *arg, const char *name, std::string &out)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "vpcperf: %s\nusage: vpcperf --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --workdir=DIR "
                 "[--reference=FILE] [--commit=HASH]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string reference, commit = "unknown", v;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (parseFlag(a, "--workload", v))
            opt.workload = v;
        else if (parseFlag(a, "--seed", v))
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (parseFlag(a, "--seconds", v))
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (parseFlag(a, "--trace", v))
            opt.trace = v == "1";
        else if (parseFlag(a, "--workdir", v))
            opt.workdir = v;
        else if (parseFlag(a, "--reference", v))
            reference = v;
        else if (parseFlag(a, "--commit", v))
            commit = v;
        else
            return usage((std::string("unknown argument ") + a).c_str());
    }
    if (opt.workdir.empty() || !(opt.seconds > 0.0))
        return usage("--workdir and a positive --seconds are required");
    const bool sweep = opt.workload == "headline_sweep" ||
                       opt.workload == "bank_contention";
    if (!sweep && opt.workload != "service_flood")
        return usage(("unknown workload " + opt.workload).c_str());
    std::error_code ec;
    std::filesystem::create_directories(opt.workdir, ec);

    const double load_before = loadavg1m();
    printProvenance(opt, commit, load_before);
    std::fflush(stdout);

    Tracer tracer;
    Outcome out = sweep ? runSweep(opt, tracer) : runFlood(opt, tracer);

    std::uint64_t ref = reference.empty()
        ? 0 : referenceDigest(reference, opt.workload, opt.seed);
    std::printf("# digest %016llx (reference: %s)\n",
                static_cast<unsigned long long>(out.digest),
                ref == 0 ? "none for this seed"
                : ref == out.digest ? "match" : "MISMATCH");
    if (ref != 0 && ref != out.digest) {
        out.failed += 1;
        out.problems.push_back("model statistics differ from the "
                               "committed reference");
    }
    if (opt.trace) {
        std::string path = opt.workdir + "/../trace-" + opt.workload +
                           "-" + std::to_string(opt.seed) + ".jsonl";
        if (tracer.writeJsonl(path))
            std::printf("# spans %zu written to %s\n", tracer.size(),
                        path.c_str());
        for (const Tracer::NameTotal &nt : tracer.selfTimes())
            std::printf("span %s count %llu total_ms %.3f self_ms %.3f\n",
                        nt.name.c_str(),
                        static_cast<unsigned long long>(nt.count),
                        nt.totalMs, nt.selfMs);
    }
    for (const std::string &p : out.problems)
        std::printf("# CHECK FAILED: %s\n", p.c_str());
    std::printf("# loadavg_1m_after %.2f\n", loadavg1m());
    printMetrics("metric", out.endToEnd);
    printMetrics("metric", out.report);
    const double error_frac = out.attempted == 0 ? 0.0
        : static_cast<double>(out.failed) /
              static_cast<double>(out.attempted);
    std::printf("metric error_frac %.9g frac\n", error_frac);
    printMetrics("layer", out.perLayer);

    const std::vector<Metric> &json =
        opt.trace ? out.perLayer : out.endToEnd;
    std::string body;
    for (const Metric &m : json) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      body.empty() ? "" : ", ", m.name.c_str(), m.value,
                      m.unit.c_str());
        body += buf;
    }
    const bool correct = out.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(out.attempted, 1)),
                static_cast<unsigned long long>(out.failed), body.c_str());
    return correct ? 0 : 1;
}
