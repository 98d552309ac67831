#include "cache/l2_bank.hh"

#include <algorithm>

#include "arbiter/arbiter_factory.hh"
#include "cache/replacement.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vpc
{

namespace
{

/** Build this bank's replacement policy from the configuration. */
std::unique_ptr<ReplacementPolicy>
makeCapacityPolicy(const SystemConfig &cfg, unsigned num_banks)
{
    if (cfg.capacityPolicy == CapacityPolicy::Lru)
        return std::make_unique<LruReplacement>();
    std::vector<double> betas;
    betas.reserve(cfg.shares.size());
    for (const QosShare &s : cfg.shares)
        betas.push_back(s.beta);
    if (cfg.capacityPolicy == CapacityPolicy::GlobalOccupancy) {
        std::uint64_t lines_per_bank =
            cfg.l2.setsPerBank(num_banks) * cfg.l2.ways;
        return std::make_unique<GlobalOccupancyManager>(
            betas, lines_per_bank);
    }
    return std::make_unique<VpcCapacityManager>(betas, cfg.l2.ways);
}

/** Extract the per-thread bandwidth shares from the configuration. */
std::vector<double>
phiVector(const SystemConfig &cfg)
{
    std::vector<double> phis;
    phis.reserve(cfg.shares.size());
    for (const QosShare &s : cfg.shares)
        phis.push_back(s.phi);
    return phis;
}

} // namespace

L2Bank::L2Bank(const SystemConfig &cfg_, unsigned bank_index,
               unsigned num_banks, unsigned num_threads,
               EventQueue &events_, MemoryController &mem_)
    : cfg(cfg_), bankIndex(bank_index), numThreads(num_threads),
      events(events_), mem(mem_),
      tags(cfg_.l2.setsPerBank(num_banks), cfg_.l2.ways,
           cfg_.l2.lineBytes, makeCapacityPolicy(cfg_, num_banks),
           log2i(num_banks)),
      ports(num_threads),
      sms(static_cast<std::size_t>(num_threads) *
          cfg_.l2.stateMachinesPerThread),
      smsInUse(num_threads, 0)
{
    sgbs.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
        sgbs.emplace_back(cfg.l2.sgbEntriesPerThread,
                          cfg.l2.sgbHighWater);
    }
    for (unsigned t = 0; t < num_threads; ++t)
        ports[t].sgb = &sgbs[t];

    VpcArbiterOptions opts;
    opts.intraThreadRow = cfg.vpcIntraThreadRow;
    opts.idleReset = cfg.vpcIdleReset;
    opts.workConserving = cfg.vpcWorkConserving;
    std::vector<double> phis = phiVector(cfg);

    // Line transfer occupies the bus for (line / width) beats.
    Cycle bus_occ = cfg.l2.busOccupancyOverride
        ? cfg.l2.busOccupancyOverride
        : cfg.l2.busBeatCycles * (cfg.l2.lineBytes / cfg.l2.busBytes);

    // Tag *updates* (fill installs) are read-modify-writes of the
    // ECC-protected tag state: two back-to-back accesses.  This is why
    // miss-dominated benchmarks (equake, swim) show tag-array
    // utilization rivaling the data array in Figure 6.
    tagRes = std::make_unique<SharedResource>(
        vpc::format("bank{}.tag", bankIndex),
        makeArbiter(cfg.arbiterPolicy, numThreads, cfg.l2.tagLatency,
                    cfg.l2.tagWriteAccesses, phis, opts),
        cfg.l2.tagLatency, cfg.l2.tagWriteAccesses);
    dataRes = std::make_unique<SharedResource>(
        vpc::format("bank{}.data", bankIndex),
        makeArbiter(cfg.arbiterPolicy, numThreads, cfg.l2.dataLatency,
                    cfg.l2.dataWriteAccesses, phis, opts),
        cfg.l2.dataLatency, cfg.l2.dataWriteAccesses);
    busRes = std::make_unique<SharedResource>(
        vpc::format("bank{}.bus", bankIndex),
        makeArbiter(cfg.arbiterPolicy, numThreads, bus_occ, 1, phis,
                    opts),
        bus_occ, 1);

    tagRes->setGrantHandler(
        [this](const ArbRequest &req, Cycle, Cycle done) {
            events.schedule(done, [this, idx = req.id, done]() {
                tagDone(idx, done);
            });
        });
    dataRes->setGrantHandler(
        [this](const ArbRequest &req, Cycle, Cycle done) {
            events.schedule(done, [this, idx = req.id, done]() {
                dataDone(idx, done);
            });
        });
    busRes->setGrantHandler(
        [this](const ArbRequest &req, Cycle start, Cycle done) {
            // The bank data bus connects directly to the processors
            // (Figure 2a), so the critical word reaches the core after
            // the first beat: request-crossbar 2 + tag 4 + data 8 +
            // beat 2 = 16 cycles, matching Figure 4.
            Sm &sm = sms.at(req.id);
            Cycle critical = start + cfg.l2.busBeatCycles;
            if (respLane != nullptr) {
                respLane->push(critical, events.profileContext(),
                               RespMsg{this, sm.thread, sm.lineAddr});
            } else {
                events.schedule(critical,
                    [this, t = sm.thread, la = sm.lineAddr]() {
                        if (respond)
                            respond(t, la);
                    });
            }
            events.schedule(done, [this, idx = req.id, start, done]() {
                busDone(idx, start, done);
            });
        });
}

void
L2Bank::setResponseHandler(ResponseHandler h)
{
    respond = std::move(h);
}

bool
L2Bank::tryReserveStore(ThreadId t)
{
    if (sgbs.at(t).full())
        return false;
    sgbs[t].reserve();
    return true;
}

void
L2Bank::storeArrive(ThreadId t, Addr line_addr, Cycle now)
{
    sgbs.at(t).addStore(line_addr, now);
}

void
L2Bank::loadArrive(ThreadId t, Addr line_addr, Cycle now,
                   bool prefetch)
{
    (void)now;
    ports.at(t).loadQueue.push_back(PendingLoad{line_addr, prefetch});
}

int
L2Bank::allocSm(ThreadId t)
{
    if (smsInUse[t] >= cfg.l2.stateMachinesPerThread)
        return -1;
    unsigned base = t * cfg.l2.stateMachinesPerThread;
    for (unsigned i = 0; i < cfg.l2.stateMachinesPerThread; ++i) {
        if (!sms[base + i].busy)
            return static_cast<int>(base + i);
    }
    vpc_panic("SM accounting out of sync for thread {}", t);
}

bool
L2Bank::lineConflict(Addr line_addr) const
{
    for (const Sm &sm : sms) {
        if (sm.busy && sm.lineAddr == line_addr)
            return true;
    }
    return false;
}

void
L2Bank::requestResource(SharedResource &res, unsigned sm_idx,
                        bool is_write, Cycle now)
{
    const Sm &sm = sms.at(sm_idx);
    ArbRequest req;
    req.id = sm_idx;
    req.thread = sm.thread;
    req.isWrite = is_write;
    req.isPrefetch = sm.isPrefetch;
    req.arrival = now;
    req.seq = nextSeq++;
    req.lineAddr = sm.lineAddr;
    res.request(req, now);
}

bool
L2Bank::tryAdmit(ThreadId t, Cycle now)
{
    ThreadPort &port = ports[t];
    StoreGatherBuffer &sgb = *port.sgb;

    // Decide the thread's candidate request: loads bypass gathered
    // stores (RoW) unless the buffer is at its high-water mark (RoW
    // inversion) or the load conflicts with a buffered store (partial
    // flush retires the conflicting store and its elders first).
    bool load_ready = false;
    bool load_prefetch = false;
    Addr load_addr = 0;
    if (!port.loadQueue.empty()) {
        load_addr = port.loadQueue.front().lineAddr;
        load_prefetch = port.loadQueue.front().prefetch;
        if (sgb.loadConflict(load_addr)) {
            sgb.flushThrough(load_addr);
        } else if (sgb.loadsMayBypass() || sgb.empty()) {
            load_ready = true;
        }
    }
    bool store_ready = !sgb.empty() && sgb.hasRetirable();

    Addr line_addr = 0;
    bool is_write = false;
    if (load_ready) {
        line_addr = load_addr;
        is_write = false;
    } else if (store_ready) {
        line_addr = *sgb.peekRetire();
        is_write = true;
    } else {
        return false;
    }

    // The tag pipeline touches this line's set a few cycles from now;
    // start pulling its plane rows into the host cache already.
    tags.prefetchSet(line_addr);

    // A request may not enter the controller pipeline while another
    // request to the same line is active (consistency check).
    if (lineConflict(line_addr))
        return false;

    int idx = allocSm(t);
    if (idx < 0)
        return false;

    Sm &sm = sms[idx];
    sm.busy = true;
    sm.thread = t;
    sm.lineAddr = line_addr;
    sm.isWrite = is_write;
    sm.isPrefetch = !is_write && load_ready && load_prefetch;
    sm.fill = false;
    sm.victimDirty = false;
    sm.victimAddr = 0;
    sm.pendingOps = 1;
    ++smsInUse[t];

    if (is_write) {
        sgb.popRetire();
        port.writes.inc();
    } else {
        port.loadQueue.pop_front();
        port.reads.inc();
    }
    VPC_DPRINTF(L2Bank, "[{}] bank{} admit t{} {} {:#x} sm{}", now,
                bankIndex, t, is_write ? "store" : "load", line_addr,
                idx);
    requestResource(*tagRes, idx, is_write, now);
    return true;
}

void
L2Bank::tagDone(unsigned sm_idx, Cycle now)
{
    Sm &sm = sms.at(sm_idx);
    if (!sm.busy)
        vpc_panic("tagDone on idle SM {}", sm_idx);

    if (sm.fill) {
        // Fill tag update: install the line, displacing a victim.
        Eviction ev = tags.insert(sm.lineAddr, sm.thread, sm.isWrite);
        if (ev.valid && ev.dirty) {
            sm.victimDirty = true;
            sm.victimAddr = ev.lineAddr;
        }
        // Dirty victims are read out of the data array before the fill
        // overwrites them; clean victims go straight to the fill write.
        requestResource(*dataRes, sm_idx, false, now);
        return;
    }

    bool hit = tags.lookup(sm.lineAddr, true, sm.thread);
    VPC_DPRINTF(L2Bank, "[{}] bank{} tagDone sm{} {:#x} {}", now,
                bankIndex, sm_idx, sm.lineAddr,
                hit ? "hit" : "miss");
    if (hit) {
        if (sm.isWrite) {
            tags.markDirty(sm.lineAddr, sm.thread);
            requestResource(*dataRes, sm_idx, true, now);
        } else if (rcqOccupancy < cfg.l2.readClaimEntries) {
            // The read-claim queue holds lines between the data array
            // and the bank data bus; a full queue backpressures new
            // data-array reads.
            requestResource(*dataRes, sm_idx, false, now);
        } else {
            deferredData.push_back(sm_idx);
        }
    } else {
        ports[sm.thread].misses.inc();
        startMemAccess(sm_idx, now);
    }
}

void
L2Bank::startMemAccess(unsigned sm_idx, Cycle now)
{
    Sm &sm = sms.at(sm_idx);
    if (!mem.canAcceptRead(sm.thread)) {
        deferredMem.push_back(sm_idx);
        return;
    }
    mem.read(sm.thread, sm.lineAddr, now,
             [this, sm_idx](Addr, Cycle done) {
                 memReturn(sm_idx, done);
             });
}

void
L2Bank::memReturn(unsigned sm_idx, Cycle now)
{
    Sm &sm = sms.at(sm_idx);
    sm.fill = true;
    // Two parallel legs for loads: (1) the line goes out on the bank
    // data bus to the requesting core ("data coming directly from
    // memory"; the bus arbiter prevents collisions with array reads);
    // (2) the line is installed: tag update, then data-array write
    // (preceded by a victim read-out if the victim is dirty).  Store
    // misses (write-allocate) only install.
    sm.pendingOps = sm.isWrite ? 1 : 2;
    if (!sm.isWrite)
        requestResource(*busRes, sm_idx, false, now);
    // The fill's tag install is a tag-state read-modify-write; it
    // revisits the set after the tag-array grant, so prefetch the
    // set's plane rows now.
    tags.prefetchSet(sm.lineAddr);
    requestResource(*tagRes, sm_idx, true, now);
}

void
L2Bank::dataDone(unsigned sm_idx, Cycle now)
{
    Sm &sm = sms.at(sm_idx);
    if (!sm.busy)
        vpc_panic("dataDone on idle SM {}", sm_idx);

    if (!sm.fill) {
        if (sm.isWrite) {
            // Store read-modify-write complete.
            finishLeg(sm_idx);
        } else {
            // Load hit: line sits in the read-claim queue until the
            // bank data bus takes it.
            ++rcqOccupancy;
            rcqHighWater = std::max(rcqHighWater, rcqOccupancy);
            requestResource(*busRes, sm_idx, false, now);
        }
        return;
    }

    if (sm.victimDirty) {
        // Victim read-out complete; write it back and start the fill
        // write.
        if (mem.canAcceptWrite(sm.thread))
            mem.write(sm.thread, sm.victimAddr, now);
        else
            deferredWb.emplace_back(sm.thread, sm.victimAddr);
        sm.victimDirty = false;
        requestResource(*dataRes, sm_idx, false, now);
        return;
    }
    // Fill write complete.
    finishLeg(sm_idx);
}

void
L2Bank::busDone(unsigned sm_idx, Cycle start, Cycle done)
{
    (void)start;
    (void)done;
    Sm &sm = sms.at(sm_idx);
    if (!sm.busy)
        vpc_panic("busDone on idle SM {}", sm_idx);
    if (!sm.fill) {
        // Hit-path transfer frees its read-claim queue slot.
        if (rcqOccupancy == 0)
            vpc_panic("read-claim queue underflow");
        --rcqOccupancy;
    }
    finishLeg(sm_idx);
}

void
L2Bank::finishLeg(unsigned sm_idx)
{
    Sm &sm = sms.at(sm_idx);
    if (sm.pendingOps == 0)
        vpc_panic("finishLeg with no pending ops on SM {}", sm_idx);
    if (--sm.pendingOps == 0) {
        sm.busy = false;
        --smsInUse[sm.thread];
    }
}

void
L2Bank::tick(Cycle now)
{
    // The bank (and crossbar) run at half the core frequency.
    if (now & 1)
        return;

    // Retry work that was blocked on a full downstream structure.
    while (!deferredWb.empty() &&
           mem.canAcceptWrite(deferredWb.front().first)) {
        mem.write(deferredWb.front().first, deferredWb.front().second,
                  now);
        deferredWb.pop_front();
    }
    while (!deferredMem.empty() &&
           mem.canAcceptRead(sms[deferredMem.front()].thread)) {
        unsigned idx = deferredMem.front();
        deferredMem.pop_front();
        startMemAccess(idx, now);
    }
    while (!deferredData.empty() &&
           rcqOccupancy < cfg.l2.readClaimEntries) {
        unsigned idx = deferredData.front();
        deferredData.pop_front();
        requestResource(*dataRes, idx, false, now);
    }

    // Admit one request per L2 cycle, round-robin across threads.
    // With no queued load and an empty gathering buffer a thread has
    // no candidate and tryAdmit() is a side-effect-free false, so the
    // inline emptiness check skips the call entirely.
    for (unsigned i = 0; i < numThreads; ++i) {
        ThreadId t = (admissionRR + i) % numThreads;
        const ThreadPort &port = ports[t];
        if (port.loadQueue.empty() && port.sgb->empty())
            continue;
        if (tryAdmit(t, now)) {
            admissionRR = (t + 1) % numThreads;
            break;
        }
    }

    tagRes->tick(now);
    dataRes->tick(now);
    busRes->tick(now);
}

Cycle
L2Bank::nextWork(Cycle now) const
{
    // The bank only acts on its even (half-frequency) cycles.
    Cycle e = now + (now & 1);

    // Deferred retries poll cheap downstream gates (memory buffer
    // space, read-claim occupancy) every L2 cycle, exactly as the
    // naive tick does, so a non-empty deferred queue keeps the bank
    // due: the gates are opened by events and by the memory
    // controller's tick, and the hint is re-polled each executed
    // cycle, so claiming "due" here is conservative, never wrong.
    if (!deferredWb.empty() || !deferredMem.empty() ||
        !deferredData.empty())
        return e;

    // Admission: a queued load can admit, flush gathered stores, or
    // at minimum mutate SGB flush state; a retirable store can admit.
    // With no queued load and nothing retirable, tryAdmit() is a
    // provable no-op (it reads SGB state and returns false).
    for (const ThreadPort &port : ports) {
        if (!port.loadQueue.empty() || port.sgb->hasRetirable())
            return e;
    }

    // Resources grant on their own schedule; round oddness up onto
    // the bank grid (occupancies are even, so this is a formality).
    Cycle next = tagRes->nextWork(e);
    next = std::min(next, dataRes->nextWork(e));
    next = std::min(next, busRes->nextWork(e));
    if (next == kCycleMax)
        return kCycleMax;
    return next + (next & 1);
}

bool
L2Bank::quiesced() const
{
    for (const Sm &sm : sms) {
        if (sm.busy)
            return false;
    }
    for (const ThreadPort &port : ports) {
        if (!port.loadQueue.empty())
            return false;
    }
    return deferredData.empty() && deferredMem.empty() &&
           deferredWb.empty() && !tagRes->arbiter().hasPending() &&
           !dataRes->arbiter().hasPending() &&
           !busRes->arbiter().hasPending();
}

bool
L2Bank::threadHasWork(ThreadId t) const
{
    const ThreadPort &port = ports.at(t);
    if (!port.loadQueue.empty() || !port.sgb->empty())
        return true;
    if (smsInUse.at(t) > 0)
        return true;
    return tagRes->arbiter().pendingCount(t) > 0 ||
           dataRes->arbiter().pendingCount(t) > 0 ||
           busRes->arbiter().pendingCount(t) > 0;
}

std::uint64_t
L2Bank::readCount(ThreadId t) const
{
    return ports.at(t).reads.value();
}

std::uint64_t
L2Bank::writeCount(ThreadId t) const
{
    return ports.at(t).writes.value();
}

std::uint64_t
L2Bank::threadMissCount(ThreadId t) const
{
    return ports.at(t).misses.value();
}

void
L2Bank::setBandwidthShare(ThreadId t, double phi)
{
    setResourceShares(t, phi, phi, phi);
}

void
L2Bank::setResourceShares(ThreadId t, double phi_tag, double phi_data,
                          double phi_bus)
{
    tagRes->arbiter().setShare(t, phi_tag);
    dataRes->arbiter().setShare(t, phi_data);
    busRes->arbiter().setShare(t, phi_bus);
}

void
L2Bank::setCapacityShare(ThreadId t, double beta)
{
    auto *mgr = dynamic_cast<VpcCapacityManager *>(&tags.policy());
    if (!mgr) {
        vpc_warn("capacity share update ignored: bank {} runs "
                 "unpartitioned LRU", bankIndex);
        return;
    }
    mgr->setShare(t, beta);
}

} // namespace vpc
