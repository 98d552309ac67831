#include "bench_common.hh"

#include <cstdio>
#include <fstream>
#include <thread>

#include "sim/format.hh"
#include "sim/logging.hh"
#include "sim/vec.hh"

namespace vpc
{

BenchReporter::BenchReporter(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now())
{
}

void
BenchReporter::addRun(std::uint64_t sim_cycles, const KernelStats &k)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_)
        vpc_panic("BenchReporter::addRun after finish");
    runs_ += 1;
    simCycles_ += sim_cycles;
    cyclesExecuted_ += k.cyclesExecuted.value();
    cyclesSkipped_ += k.cyclesSkipped.value();
    ticksExecuted_ += k.ticksExecuted.value();
    eventsFired_ += k.eventsFired.value();
}

void
BenchReporter::addProfile(const Profiler &p)
{
    std::lock_guard<std::mutex> lock(mutex_);
    profile_.mergeByName(p);
    haveProfile_ = true;
}

void
BenchReporter::setRunCacheStats(std::uint64_t hits,
                                std::uint64_t misses,
                                std::uint64_t disk_hits,
                                std::uint64_t store_errors)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cacheHits_ = hits;
    cacheMisses_ = misses;
    cacheDiskHits_ = disk_hits;
    cacheStoreErrors_ = store_errors;
}

void
BenchReporter::setRunCacheStats(const RunCache &cache)
{
    setRunCacheStats(cache.hits(), cache.misses(), cache.diskHits(),
                     cache.storeErrors());
}

void
BenchReporter::setQuick(bool quick)
{
    std::lock_guard<std::mutex> lock(mutex_);
    quick_ = quick;
}

void
BenchReporter::setExtraSection(std::string key, std::string raw_json)
{
    std::lock_guard<std::mutex> lock(mutex_);
    extraKey_ = std::move(key);
    extraJson_ = std::move(raw_json);
}

const BenchReporter::MachineInfo &
BenchReporter::machineInfo()
{
    static const MachineInfo info = [] {
        MachineInfo m;
        m.nproc = std::thread::hardware_concurrency();
        std::ifstream cpuinfo("/proc/cpuinfo");
        std::string line;
        while (std::getline(cpuinfo, line)) {
            if (line.rfind("model name", 0) == 0) {
                std::size_t colon = line.find(':');
                if (colon != std::string::npos) {
                    std::size_t v = line.find_first_not_of(
                        " \t", colon + 1);
                    if (v != std::string::npos)
                        m.cpuModel = line.substr(v);
                }
                break;
            }
        }
        std::ifstream loadavg("/proc/loadavg");
        double l1 = -1.0;
        if (loadavg >> l1)
            m.loadavg1m = l1;
#if defined(__clang__)
        m.compiler = format("clang {}.{}.{}", __clang_major__,
                            __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
        m.compiler = format("gcc {}.{}.{}", __GNUC__, __GNUC_MINOR__,
                            __GNUC_PATCHLEVEL__);
#else
        m.compiler = "unknown";
#endif
        m.simd = vec::kIsaName;
        return m;
    }();
    return info;
}

void
BenchReporter::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!finished_) {
        end_ = std::chrono::steady_clock::now();
        finished_ = true;
    }
}

double
BenchReporter::wallMs() const
{
    auto end = finished_ ? end_ : std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start_)
        .count();
}

double
BenchReporter::mcyclesPerSec() const
{
    double ms = wallMs();
    if (ms <= 0.0)
        return 0.0;
    return static_cast<double>(simCycles_) / (ms / 1e3) / 1e6;
}

double
BenchReporter::eventsPerCycle() const
{
    if (cyclesExecuted_ == 0)
        return 0.0;
    return static_cast<double>(eventsFired_) /
           static_cast<double>(cyclesExecuted_);
}

void
BenchReporter::printSummary() const
{
    // stderr, so stdout stays bit-identical between skipping and
    // --no-skip runs (wall time and skip counts legitimately differ).
    std::fprintf(
        stderr,
        "bench %s: %.0f ms wall, %llu runs, %llu Msim-cycles, "
        "%.2f Mcycles/s, %.2f events/cycle, %llu cycles skipped, "
        "run-cache %llu/%llu hit/miss (%llu disk, %llu store "
        "errors)\n",
        name_.c_str(), wallMs(),
        static_cast<unsigned long long>(runs_),
        static_cast<unsigned long long>(simCycles_ / 1'000'000),
        mcyclesPerSec(), eventsPerCycle(),
        static_cast<unsigned long long>(cyclesSkipped_),
        static_cast<unsigned long long>(cacheHits_),
        static_cast<unsigned long long>(cacheMisses_),
        static_cast<unsigned long long>(cacheDiskHits_),
        static_cast<unsigned long long>(cacheStoreErrors_));
    if (haveProfile_)
        std::fprintf(stderr, "%s\n", profile_.report().c_str());
}

namespace
{

/** Minimal JSON string escape (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

void
BenchReporter::writeJson(const std::string &path) const
{
    std::string file =
        path.empty() ? format("BENCH_{}.json", name_) : path;
    std::FILE *f = std::fopen(file.c_str(), "w");
    if (!f) {
        vpc_warn("cannot write {}", file);
        return;
    }
    const MachineInfo &m = machineInfo();
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"wall_ms\": %.1f,\n"
                 "  \"runs\": %llu,\n"
                 "  \"sim_cycles\": %llu,\n"
                 "  \"mcycles_per_sec\": %.3f,\n"
                 "  \"cycles_executed\": %llu,\n"
                 "  \"cycles_skipped\": %llu,\n"
                 "  \"ticks_executed\": %llu,\n"
                 "  \"events_fired\": %llu,\n"
                 "  \"events_per_cycle\": %.4f,\n"
                 "  \"quick\": %s,\n"
                 "  \"run_cache\": {\n"
                 "    \"hits\": %llu,\n"
                 "    \"misses\": %llu,\n"
                 "    \"disk_hits\": %llu,\n"
                 "    \"store_errors\": %llu\n"
                 "  },\n"
                 "  \"machine\": {\n"
                 "    \"nproc\": %u,\n"
                 "    \"cpu_model\": \"%s\",\n"
                 "    \"loadavg_1m\": %.2f,\n"
                 "    \"compiler\": \"%s\",\n"
                 "    \"simd\": \"%s\"\n"
                 "  }",
                 name_.c_str(), wallMs(),
                 static_cast<unsigned long long>(runs_),
                 static_cast<unsigned long long>(simCycles_),
                 mcyclesPerSec(),
                 static_cast<unsigned long long>(cyclesExecuted_),
                 static_cast<unsigned long long>(cyclesSkipped_),
                 static_cast<unsigned long long>(ticksExecuted_),
                 static_cast<unsigned long long>(eventsFired_),
                 eventsPerCycle(),
                 quick_ ? "true" : "false",
                 static_cast<unsigned long long>(cacheHits_),
                 static_cast<unsigned long long>(cacheMisses_),
                 static_cast<unsigned long long>(cacheDiskHits_),
                 static_cast<unsigned long long>(cacheStoreErrors_),
                 m.nproc,
                 jsonEscape(m.cpuModel).c_str(), m.loadavg1m,
                 jsonEscape(m.compiler).c_str(),
                 jsonEscape(m.simd).c_str());
    if (haveProfile_) {
        std::uint64_t ev_total = profile_.totalEventNs();
        double attributed = ev_total == 0
            ? 100.0
            : 100.0 * static_cast<double>(profile_.attributedEventNs())
                / static_cast<double>(ev_total);
        std::fprintf(f,
                     ",\n  \"profile\": {\n"
                     "    \"attributed_event_pct\": %.1f,\n"
                     "    \"components\": [",
                     attributed);
        bool first = true;
        for (const Profiler::Entry &e : profile_.entries()) {
            if (e.tickCount == 0 && e.eventCount == 0)
                continue;
            std::fprintf(
                f,
                "%s\n      {\"name\": \"%s\", \"tick_ns\": %llu, "
                "\"tick_count\": %llu, \"event_ns\": %llu, "
                "\"event_count\": %llu}",
                first ? "" : ",", jsonEscape(e.name).c_str(),
                static_cast<unsigned long long>(e.tickNs),
                static_cast<unsigned long long>(e.tickCount),
                static_cast<unsigned long long>(e.eventNs),
                static_cast<unsigned long long>(e.eventCount));
            first = false;
        }
        std::fprintf(f, "\n    ]\n  }");
    }
    if (!extraKey_.empty() && !extraJson_.empty()) {
        std::fprintf(f, ",\n  \"%s\": %s",
                     jsonEscape(extraKey_).c_str(), extraJson_.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
}

} // namespace vpc
