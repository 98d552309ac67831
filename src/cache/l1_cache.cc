#include "cache/l1_cache.hh"

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vpc
{

L1DCache::L1DCache(const L1Config &cfg_, ThreadId thread_,
                   EventQueue &events_)
    : cfg(cfg_), thread(thread_), events(events_),
      tags(cfg_.sizeBytes / (cfg_.ways * cfg_.lineBytes), cfg_.ways,
           cfg_.lineBytes),
      mshrs(cfg_.mshrs), prefetcher(cfg_.prefetch, cfg_.lineBytes)
{}

int
L1DCache::findMshr(Addr line_addr) const
{
    for (std::size_t i = 0; i < mshrs.size(); ++i) {
        if (mshrs[i].valid && mshrs[i].lineAddr == line_addr)
            return static_cast<int>(i);
    }
    return -1;
}

int
L1DCache::freeMshr() const
{
    for (std::size_t i = 0; i < mshrs.size(); ++i) {
        if (!mshrs[i].valid)
            return static_cast<int>(i);
    }
    return -1;
}

L1DCache::LoadResult
L1DCache::load(Addr addr, Cycle now, LoadCallback cb)
{
    if (probeTouch(addr)) {
        completeHit();
        events.schedule(now + cfg.hitLatency, std::move(cb));
        return LoadResult::Hit;
    }
    return loadMiss(addr, now, std::move(cb));
}

L1DCache::LoadResult
L1DCache::loadMiss(Addr addr, Cycle now, LoadCallback cb)
{
    Addr line = lineAlign(addr, cfg.lineBytes);
    int idx = findMshr(line);
    if (idx >= 0) {
        // Secondary miss: merge with the outstanding fetch.
        merged.inc();
        if (mshrs[idx].prefetch) {
            // The prefetch was launched early enough to hide part of
            // the latency but not all of it.
            pfLateUseful.inc();
        }
        mshrs[idx].waiters.push_back(std::move(cb));
        // Secondary misses still train the prefetcher so a stream
        // keeps advancing once its own prefetches are in flight.
        maybePrefetch(line, now);
        return LoadResult::Miss;
    }

    idx = freeMshr();
    if (idx < 0) {
        blocked.inc();
        return LoadResult::Blocked;
    }

    misses.inc();
    mshrs[idx].valid = true;
    mshrs[idx].prefetch = false;
    mshrs[idx].lineAddr = line;
    mshrs[idx].waiters.clear();
    mshrs[idx].waiters.push_back(std::move(cb));
    if (!missHandler)
        vpc_panic("L1 miss with no miss handler installed");
    missHandler(line, now, false);
    maybePrefetch(line, now);
    return LoadResult::Miss;
}

void
L1DCache::maybePrefetch(Addr line_addr, Cycle now)
{
    for (Addr p : prefetcher.observeMiss(line_addr)) {
        if (wouldHit(p) || findMshr(p) >= 0)
            continue;
        int idx = freeMshr();
        if (idx < 0)
            break; // never displace demand capability
        mshrs[idx].valid = true;
        mshrs[idx].prefetch = true;
        mshrs[idx].lineAddr = p;
        mshrs[idx].waiters.clear();
        pfIssued.inc();
        VPC_DPRINTF(Prefetch, "[{}] t{} prefetch {:#x}", now, thread,
                    p);
        missHandler(p, now, true);
    }
}

bool
L1DCache::mshrPending(Addr addr) const
{
    return findMshr(lineAlign(addr, cfg.lineBytes)) >= 0;
}

bool
L1DCache::wouldHit(Addr addr) const
{
    // lookup() without touch has no LRU or statistics side effects,
    // but needs a non-const array reference; keep the cast local.
    return const_cast<CacheArray &>(tags).lookup(addr, false, thread);
}

void
L1DCache::store(Addr addr, Cycle now)
{
    (void)now;
    // Write-through, no-write-allocate: update the copy if present so
    // later loads hit current data; never allocate on a store miss.
    // The L1 is never dirty, so it produces no writebacks.
    tags.markDirty(addr, thread); // refreshes LRU; dirtiness is unused
}

void
L1DCache::fill(Addr line_addr, Cycle now)
{
    (void)now;
    int idx = findMshr(line_addr);
    if (idx < 0) {
        // A fill for a line with no MSHR can only be a duplicate; the
        // L2 sends one response per outstanding fetch, so this is a
        // protocol violation.
        vpc_panic("L1 fill for {:#x} with no matching MSHR", line_addr);
    }
    tags.insert(line_addr, thread, false);
    for (LoadCallback &cb : mshrs[idx].waiters)
        cb();
    mshrs[idx].valid = false;
    mshrs[idx].waiters.clear();
}

unsigned
L1DCache::mshrsInUse() const
{
    unsigned n = 0;
    for (const Mshr &m : mshrs) {
        if (m.valid)
            ++n;
    }
    return n;
}

} // namespace vpc
