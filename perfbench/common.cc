#include "common.hh"

#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

#include <sys/resource.h>

#include "system/record_io.hh"

namespace perfbench
{

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
digestRecord(vpc::Fnv1a &h, const vpc::RunRecord &r)
{
    const vpc::IntervalStats &s = r.stats;
    h.u64(r.endCycle);
    h.u64(s.cycles);
    auto vec = [&h](const std::vector<std::uint64_t> &v) {
        h.u64(v.size());
        for (std::uint64_t x : v)
            h.u64(x);
    };
    h.u64(s.ipc.size());
    for (double x : s.ipc)
        h.dbl(x);
    vec(s.instrs);
    vec(s.l2Reads);
    vec(s.l2Writes);
    vec(s.l2Misses);
    vec(s.sgbStores);
    vec(s.sgbGathered);
    h.dbl(s.tagUtil);
    h.dbl(s.dataUtil);
    h.dbl(s.busUtil);
}

bool
sameModelStats(const vpc::RunRecord &a, const vpc::RunRecord &b)
{
    vpc::Fnv1a ha, hb;
    digestRecord(ha, a);
    digestRecord(hb, b);
    return ha.value() == hb.value();
}

Tracer::Scope::Scope(Tracer *tracer, const char *name,
                     std::uint64_t parent, std::uint64_t job)
    : tracer_(tracer)
{
    span_.start = Clock::now();
    if (tracer_) {
        span_.name = name;
        span_.id = tracer_->nextId_.fetch_add(1);
        span_.parent = parent;
        span_.job = job;
    }
}

Tracer::Scope::~Scope()
{
    if (tracer_) {
        span_.end = Clock::now();
        tracer_->add(std::move(span_));
    }
}

double
Tracer::Scope::elapsedMs() const
{
    return msBetween(span_.start, Clock::now());
}

void
Tracer::add(Span s)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"job\": %llu, \"start_us\": %.3f, "
                     "\"end_us\": %.3f}\n",
                     s.name.c_str(),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.job), us(s.start),
                     us(s.end));
    }
    bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::vector<Tracer::NameTotal>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans_) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, NameTotal> by_name;
    for (const Span &s : spans_) {
        double total = msBetween(s.start, s.end);
        // Union of the children's intervals, clipped to this span
        // (children of a sweep run concurrently and overlap).
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<Clock::time_point, Clock::time_point>>
                iv;
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
            std::sort(iv.begin(), iv.end());
            Clock::time_point cur_s = iv.front().first;
            Clock::time_point cur_e = iv.front().second;
            for (const auto &[a, b] : iv) {
                if (a > cur_e) {
                    covered += msBetween(cur_s, cur_e);
                    cur_s = a;
                    cur_e = b;
                } else {
                    cur_e = std::max(cur_e, b);
                }
            }
            covered += msBetween(cur_s, cur_e);
        }
        NameTotal &nt = by_name[s.name];
        nt.name = s.name;
        nt.count += 1;
        nt.totalMs += total;
        nt.selfMs += std::max(0.0, total - covered);
    }
    std::vector<NameTotal> out;
    for (auto &[name, nt] : by_name)
        out.push_back(nt);
    return out;
}

} // namespace perfbench
