#include "cache/l2_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vpc
{

L2Cache::L2Cache(const SystemConfig &cfg_, EventQueue &events_,
                 MemoryController &mem)
    : cfg(cfg_), events(events_)
{
    banks.reserve(cfg.l2.banks);
    for (unsigned b = 0; b < cfg.l2.banks; ++b) {
        banks.push_back(std::make_unique<L2Bank>(
            cfg, b, cfg.l2.banks, cfg.numProcessors, events, mem));
    }
}

void
L2Cache::setResponseHandler(ResponseHandler h)
{
    // All banks share the system-level handler; the handler fans out
    // to the right core by thread id.
    for (auto &bank : banks) {
        bank->setResponseHandler(
            [h](ThreadId t, Addr line_addr) { h(t, line_addr); });
    }
}

unsigned
L2Cache::bankOf(Addr addr) const
{
    return static_cast<unsigned>(
        (addr / cfg.l2.lineBytes) % banks.size());
}

bool
L2Cache::store(ThreadId t, Addr addr, Cycle now)
{
    Addr line = lineAlign(addr, cfg.l2.lineBytes);
    L2Bank &bank = *banks[bankOf(addr)];
    if (!bank.tryReserveStore(t))
        return false;
    Cycle arrive = now + cfg.l2.interconnectLatency;
    if (transitLane != nullptr) {
        transitLane->push(arrive, events.profileContext(),
                          TransitMsg{&bank, line, t,
                                     /*isStore=*/true, false});
    } else {
        events.schedule(arrive, [&bank, t, line, arrive]() {
            bank.storeArrive(t, line, arrive);
        });
    }
    return true;
}

void
L2Cache::load(ThreadId t, Addr addr, Cycle now, bool prefetch)
{
    Addr line = lineAlign(addr, cfg.l2.lineBytes);
    L2Bank &bank = *banks[bankOf(addr)];
    Cycle arrive = now + cfg.l2.interconnectLatency;
    if (transitLane != nullptr) {
        transitLane->push(arrive, events.profileContext(),
                          TransitMsg{&bank, line, t,
                                     /*isStore=*/false, prefetch});
    } else {
        events.schedule(arrive, [&bank, t, line, arrive, prefetch]() {
            bank.loadArrive(t, line, arrive, prefetch);
        });
    }
}

void
L2Cache::tick(Cycle now)
{
    for (auto &bank : banks)
        bank->tick(now);
}

Cycle
L2Cache::nextWork(Cycle now) const
{
    Cycle next = kCycleMax;
    for (const auto &bank : banks)
        next = std::min(next, bank->nextWork(now));
    return next;
}

bool
L2Cache::quiesced() const
{
    for (const auto &bank : banks) {
        if (!bank->quiesced())
            return false;
    }
    return true;
}

bool
L2Cache::threadHasWork(ThreadId t) const
{
    for (const auto &bank : banks) {
        if (bank->threadHasWork(t))
            return true;
    }
    return false;
}

double
L2Cache::tagUtilization(Cycle window) const
{
    double sum = 0.0;
    for (const auto &bank : banks)
        sum += bank->tagArray().util().utilization(window);
    return sum / static_cast<double>(banks.size());
}

double
L2Cache::dataUtilization(Cycle window) const
{
    double sum = 0.0;
    for (const auto &bank : banks)
        sum += bank->dataArray().util().utilization(window);
    return sum / static_cast<double>(banks.size());
}

double
L2Cache::busUtilization(Cycle window) const
{
    double sum = 0.0;
    for (const auto &bank : banks)
        sum += bank->dataBus().util().utilization(window);
    return sum / static_cast<double>(banks.size());
}

double
L2Cache::tagBusyMean() const
{
    double sum = 0.0;
    for (const auto &bank : banks)
        sum += static_cast<double>(bank->tagArray().util().busyCycles());
    return sum / static_cast<double>(banks.size());
}

double
L2Cache::dataBusyMean() const
{
    double sum = 0.0;
    for (const auto &bank : banks)
        sum += static_cast<double>(
            bank->dataArray().util().busyCycles());
    return sum / static_cast<double>(banks.size());
}

double
L2Cache::busBusyMean() const
{
    double sum = 0.0;
    for (const auto &bank : banks)
        sum += static_cast<double>(bank->dataBus().util().busyCycles());
    return sum / static_cast<double>(banks.size());
}

std::uint64_t
L2Cache::readCount(ThreadId t) const
{
    std::uint64_t n = 0;
    for (const auto &bank : banks)
        n += bank->readCount(t);
    return n;
}

std::uint64_t
L2Cache::writeCount(ThreadId t) const
{
    std::uint64_t n = 0;
    for (const auto &bank : banks)
        n += bank->writeCount(t);
    return n;
}

std::uint64_t
L2Cache::missCount(ThreadId t) const
{
    std::uint64_t n = 0;
    for (const auto &bank : banks)
        n += bank->threadMissCount(t);
    return n;
}

std::uint64_t
L2Cache::storesTotal(ThreadId t) const
{
    std::uint64_t n = 0;
    for (const auto &bank : banks)
        n += bank->sgb(t).storesTotal();
    return n;
}

std::uint64_t
L2Cache::storesGathered(ThreadId t) const
{
    std::uint64_t n = 0;
    for (const auto &bank : banks)
        n += bank->sgb(t).storesGathered();
    return n;
}

void
L2Cache::setBandwidthShare(ThreadId t, double phi)
{
    for (auto &bank : banks)
        bank->setBandwidthShare(t, phi);
}

} // namespace vpc
