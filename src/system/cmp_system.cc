#include "system/cmp_system.hh"

#include <memory>
#include <string>
#include <utility>

#include "arbiter/vpc_arbiter.hh"
#include "cache/replacement.hh"
#include "sim/format.hh"
#include "sim/logging.hh"
#include "verify/auditors.hh"

namespace vpc
{

CmpSystem::CmpSystem(SystemConfig cfg_,
                     std::vector<std::unique_ptr<Workload>> workloads_)
    : cfg(std::move(cfg_)), workloads(std::move(workloads_))
{
    cfg.validate();
    if (workloads.size() != cfg.numProcessors)
        vpc_fatal("{} workloads for {} processors", workloads.size(),
                  cfg.numProcessors);

    std::vector<double> mem_shares;
    mem_shares.reserve(cfg.shares.size());
    for (const QosShare &s : cfg.shares)
        mem_shares.push_back(s.phi);
    mem_ = std::make_unique<MemoryController>(cfg.mem,
                                              cfg.numProcessors,
                                              cfg.l2.lineBytes,
                                              sim.events(),
                                              mem_shares);
    l2_ = std::make_unique<L2Cache>(cfg, sim.events(), *mem_);

    for (ThreadId t = 0; t < cfg.numProcessors; ++t) {
        l1s.push_back(std::make_unique<L1DCache>(cfg.l1ConfigFor(t),
                                                 t, sim.events()));
        L1DCache &l1 = *l1s.back();
        L2Cache &l2 = *l2_;
        l1.setMissHandler([&l2, t](Addr line_addr, Cycle now,
                                   bool prefetch) {
            l2.load(t, line_addr, now, prefetch);
        });
        cpus.push_back(std::make_unique<Cpu>(cfg.core, t,
                                             *workloads[t], l1, *l2_));
    }

    l2_->setResponseHandler([this](ThreadId t, Addr line_addr) {
        l1s.at(t)->fill(line_addr, sim.now());
    });

    // Registration order defines intra-cycle evaluation order:
    // cores produce requests, the L2 moves them, memory follows.
    for (ThreadId t = 0; t < cfg.numProcessors; ++t)
        sim.addTicking(cpus[t].get(), "cpu" + std::to_string(t));
    sim.addTicking(l2_.get(), "l2");
    sim.addTicking(mem_.get(), "mem");

    // Fused fixed-latency chains.  Lane drain order must replay the
    // event queue's insertion order for same-cycle entries: every
    // fused hop has the minimum modeled latency, so all other events
    // due the same cycle were inserted earlier and fire first
    // (runDue precedes the drains), and within the fused set the
    // producing cycle schedules hits/transits from the CPU ticks
    // before the L2 tick issues bus grants — hence L1 lanes, then
    // the transit lane, then the response lane.
    if (cfg.kernelFuse) {
        for (ThreadId t = 0; t < cfg.numProcessors; ++t) {
            cpus[t]->setHitFused(true);
            sim.addFusedChain(cpus[t]->hitChain());
        }
        transitLane_ =
            std::make_unique<L2Cache::TransitLane>(/*counted=*/true);
        l2_->setTransitLane(transitLane_.get());
        sim.addFusedChain(transitLane_.get());
        respLane_ =
            std::make_unique<L2Bank::ResponseLane>(/*counted=*/true);
        for (unsigned b = 0; b < l2_->numBanks(); ++b)
            l2_->bank(b).setResponseLane(respLane_.get());
        sim.addFusedChain(respLane_.get());
    }

    if (cfg.profile) {
        profiler_ = std::make_unique<Profiler>();
        sim.setProfiler(profiler_.get());
    }

    // The simulator additionally forces the naive loop whenever an
    // auditor is installed, so verify runs never skip a cycle.
    sim.setSkipping(cfg.kernelSkip);

    if (cfg.verify.enabled())
        buildVerifier();
}

Profiler
CmpSystem::mergedProfile() const
{
    return profiler_ ? *profiler_ : Profiler{};
}

void
CmpSystem::buildVerifier()
{
    verifier_ = std::make_unique<Verifier>(cfg.verify);
    unsigned n = cfg.numProcessors;

    // Invariant checkers over every arbitrated resource and every
    // bank's line-ownership state.  They are registered even when
    // paranoid == 0 (the Verifier gates their execution) so a
    // fault-injection or watchdog run can be upgraded to a paranoid
    // one purely through VerifyConfig.
    for (unsigned b = 0; b < l2_->numBanks(); ++b) {
        L2Bank &bank = l2_->bank(b);
        struct NamedRes { const char *tag; SharedResource *res; };
        const NamedRes resources[] = {
            {"tag", &bank.tagArray()},
            {"data", &bank.dataArray()},
            {"bus", &bank.dataBus()},
        };
        for (const NamedRes &r : resources) {
            std::string label = format("bank{}.{}", b, r.tag);
            verifier_->addChecker(
                std::make_unique<ArbiterConservationAuditor>(
                    r.res->arbiter(), label));
            if (const auto *vpc_arb = dynamic_cast<const VpcArbiter *>(
                    &r.res->arbiter())) {
                verifier_->addChecker(
                    std::make_unique<VpcArbiterAuditor>(*vpc_arb,
                                                        label));
            }
        }
        verifier_->addChecker(std::make_unique<CapacityAuditor>(
            bank.array(), n, format("bank{}", b)));
        if (const auto *mgr = dynamic_cast<const VpcCapacityManager *>(
                &bank.array().policy())) {
            bank.array().setVictimAudit(
                makeVpcVictimAudit(*mgr, format("bank{}", b)));
        }
    }
    if (mem_->sharedChannel()) {
        verifier_->addChecker(
            std::make_unique<ArbiterConservationAuditor>(
                mem_->scheduler(), "mem.sched"));
        if (const auto *vpc_arb = dynamic_cast<const VpcArbiter *>(
                &mem_->scheduler())) {
            verifier_->addChecker(std::make_unique<VpcArbiterAuditor>(
                *vpc_arb, "mem.sched"));
        }
    }
    verifier_->addChecker(
        std::make_unique<EventQueueAuditor>(sim.events()));

    if (cfg.verify.watchdogCycles > 0) {
        auto wd = std::make_unique<Watchdog>(cfg.verify.watchdogCycles);
        for (ThreadId t = 0; t < n; ++t) {
            Cpu *cpu = cpus[t].get();
            L1DCache *l1 = l1s[t].get();
            L2Cache *l2 = l2_.get();
            wd->addThread(Watchdog::Source{
                [cpu] { return cpu->instrsRetired(); },
                [l1, l2, t] {
                    return l1->mshrsInUse() > 0 || l2->threadHasWork(t);
                }});
        }
        verifier_->setWatchdog(std::move(wd));
    }

    if (FaultInjector *inj = verifier_->injector()) {
        // All faults target bank 0: one bank suffices to prove every
        // auditor live, and keeping the blast radius small makes the
        // injected-vs-detected correspondence easy to read in logs.
        L2Bank &bank = l2_->bank(0);
        Arbiter *tag_arb = &bank.tagArray().arbiter();
        inj->addFault("drop-oldest-request", [tag_arb, n, t = 0u]()
                      mutable {
            bool dropped = tag_arb->faultDropOldest(t);
            t = (t + 1) % n;
            return dropped;
        });
        if (auto *vpc_arb = dynamic_cast<VpcArbiter *>(tag_arb)) {
            inj->addFault("corrupt-virtual-time", [vpc_arb, n, t = 0u]()
                          mutable {
                vpc_arb->faultCorruptVirtualTime(t, 1e6);
                t = (t + 1) % n;
                return true;
            });
        }
        SharedResource *tag_res = &bank.tagArray();
        inj->addFault("drop-grant", [tag_res] {
            tag_res->faultDropNextGrant();
            return true;
        });
        CacheArray *array = &bank.array();
        inj->addFault("flip-line-owner", [array, n, t = 0u]() mutable {
            bool flipped = array->faultFlipOwner(t);
            t = (t + 1) % n;
            return flipped;
        });
        if (dynamic_cast<const VpcCapacityManager *>(&array->policy())) {
            inj->addFault("force-victim-way",
                          [array, w = 0u, ways = array->numWays()]()
                          mutable {
                array->faultForceNextVictim(w);
                w = (w + 1) % ways;
                return true;
            });
        }
    }

    panicDump_ = std::make_unique<ScopedPanicDump>(
        "cmp-system", [this] { return dumpState(); });
    sim.setAuditor(verifier_.get());
}

std::string
CmpSystem::dumpState() const
{
    std::string out = format("cycle {}\n", now());
    for (ThreadId t = 0; t < cfg.numProcessors; ++t) {
        out += format(
            "thread {}: instrs {} l1-mshrs {} l2-work {}\n", t,
            cpus[t]->instrsRetired(), l1s[t]->mshrsInUse(),
            l2_->threadHasWork(t) ? "yes" : "no");
    }
    for (unsigned b = 0; b < l2_->numBanks(); ++b) {
        const L2Bank &bank = l2_->bank(b);
        struct NamedRes { const char *tag; const SharedResource *res; };
        const NamedRes resources[] = {
            {"tag", &bank.tagArray()},
            {"data", &bank.dataArray()},
            {"bus", &bank.dataBus()},
        };
        for (const NamedRes &r : resources) {
            const Arbiter &arb = r.res->arbiter();
            out += format("bank{}.{} [{}]:", b, r.tag, arb.name());
            for (ThreadId t = 0; t < cfg.numProcessors; ++t) {
                out += format(" t{}={}q/{}g", t, arb.pendingCount(t),
                              arb.grantCount(t));
            }
            if (const auto *vpc_arb =
                    dynamic_cast<const VpcArbiter *>(&arb)) {
                out += format(" vclock={:.1f}",
                              vpc_arb->systemVirtualTime());
                for (ThreadId t = 0; t < cfg.numProcessors; ++t) {
                    out += format(" rs{}={:.1f}", t,
                                  vpc_arb->virtualTime(t));
                }
            }
            out += "\n";
        }
        out += format("bank{} occupancy:", b);
        for (ThreadId t = 0; t < cfg.numProcessors; ++t)
            out += format(" t{}={}", t,
                          bank.array().trackedOccupancy(t));
        out += format("  sgb:");
        for (ThreadId t = 0; t < cfg.numProcessors; ++t)
            out += format(" t{}={}", t, bank.sgb(t).occupancy());
        out += "\n";
    }
    // The count includes undrained fused-lane entries, so it does not
    // depend on whether fusion is on.
    out += format("event queue: {} pending\n", sim.pendingEvents());
    return out;
}

void
CmpSystem::run(Cycle cycles)
{
    sim.run(cycles);
}

void
CmpSystem::setCancelToken(const CancelToken *token)
{
    sim.setCancelToken(token);
    if (verifier_ && verifier_->watchdog())
        verifier_->watchdog()->setCancelToken(token);
}

void
CmpSystem::armWallDeadline(std::chrono::milliseconds budget)
{
    if (verifier_ && verifier_->watchdog())
        verifier_->watchdog()->armWallDeadline(budget);
}

SystemSnapshot
CmpSystem::snapshot() const
{
    SystemSnapshot s;
    s.cycle = now();
    for (ThreadId t = 0; t < cfg.numProcessors; ++t) {
        s.instrs.push_back(cpus[t]->instrsRetired());
        s.loads.push_back(cpus[t]->loadsRetired());
        s.stores.push_back(cpus[t]->storesRetired());
        s.l2Reads.push_back(l2_->readCount(t));
        s.l2Writes.push_back(l2_->writeCount(t));
        s.l2Misses.push_back(l2_->missCount(t));
        s.sgbStores.push_back(l2_->storesTotal(t));
        s.sgbGathered.push_back(l2_->storesGathered(t));
    }
    s.tagBusy = l2_->tagBusyMean();
    s.dataBusy = l2_->dataBusyMean();
    s.busBusy = l2_->busBusyMean();
    return s;
}

IntervalStats
CmpSystem::interval(const SystemSnapshot &a, const SystemSnapshot &b)
{
    if (b.cycle < a.cycle)
        vpc_panic("interval endpoints out of order");
    IntervalStats out;
    out.cycles = b.cycle - a.cycle;
    double window = static_cast<double>(out.cycles);
    for (std::size_t t = 0; t < a.instrs.size(); ++t) {
        std::uint64_t di = b.instrs[t] - a.instrs[t];
        out.instrs.push_back(di);
        out.ipc.push_back(window > 0.0
                          ? static_cast<double>(di) / window : 0.0);
        out.l2Reads.push_back(b.l2Reads[t] - a.l2Reads[t]);
        out.l2Writes.push_back(b.l2Writes[t] - a.l2Writes[t]);
        out.l2Misses.push_back(b.l2Misses[t] - a.l2Misses[t]);
        out.sgbStores.push_back(b.sgbStores[t] - a.sgbStores[t]);
        out.sgbGathered.push_back(b.sgbGathered[t] - a.sgbGathered[t]);
    }
    if (window > 0.0) {
        // A grant accrues its full occupancy immediately, so a window
        // boundary can land inside an access; clamp the spill-over.
        auto clamp01 = [](double v) {
            return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
        };
        out.tagUtil = clamp01((b.tagBusy - a.tagBusy) / window);
        out.dataUtil = clamp01((b.dataBusy - a.dataBusy) / window);
        out.busUtil = clamp01((b.busBusy - a.busBusy) / window);
    }
    return out;
}

IntervalStats
CmpSystem::runAndMeasure(Cycle warmup, Cycle measure)
{
    run(warmup);
    SystemSnapshot before = snapshot();
    run(measure);
    return interval(before, snapshot());
}

} // namespace vpc
