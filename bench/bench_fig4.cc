/**
 * @file
 * Figure 4: cache timing diagram of back-to-back reads to different
 * cache banks.  Instruments one load hit per bank and prints the cycle
 * each pipeline stage occupies, verifying the 16-cycle critical word /
 * 22-cycle full-line timing of the paper.
 */

#include <memory>
#include <vector>

#include "bench_common.hh"
#include "cache/l2_bank.hh"
#include "sim/simulator.hh"
#include "system/experiment.hh"
#include "system/table_printer.hh"

using namespace vpc;

namespace
{

struct StageTimes
{
    Cycle arrive = 0, tagStart = 0, tagDone = 0;
    Cycle dataStart = 0, dataDone = 0;
    Cycle busStart = 0, critical = 0, busDone = 0;
};

struct BankTicker : Ticking
{
    L2Bank *bank = nullptr;
    void tick(Cycle now) override { bank->tick(now); }
};

} // namespace

int
main()
{
    BenchReporter rep("fig4");
    SystemConfig cfg = makeBaselineConfig(1, ArbiterPolicy::RowFcfs);
    Simulator sim;
    MemoryController mc(cfg.mem, 1, 64, sim.events());
    L2Bank::ResponseLane respLane(/*counted=*/true);
    std::vector<std::unique_ptr<L2Bank>> banks;
    std::vector<BankTicker> tickers(2);
    std::vector<StageTimes> times(2);

    for (unsigned b = 0; b < 2; ++b) {
        banks.push_back(std::make_unique<L2Bank>(cfg, b, 2, 1,
                                                 sim.events(), mc,
                                                 respLane));
        tickers[b].bank = banks[b].get();
        sim.addTicking(&tickers[b]);
        banks[b]->setResponseHandler(
            [&times, b, &sim](ThreadId, Addr) {
                times[b].critical = sim.now();
            });
    }
    sim.addTicking(&mc);
    sim.addFusedChain(&respLane);

    // Warm both lines so the measured accesses are hits.
    banks[0]->loadArrive(0, 0x0, 0);
    banks[1]->loadArrive(0, 0x40, 0);
    while (!(banks[0]->quiesced() && banks[1]->quiesced()))
        sim.step();

    // Instrument the resource grants.
    for (unsigned b = 0; b < 2; ++b) {
        banks[b]->tagArray().setGrantHandlerTap(
            [&times, b](const ArbRequest &, Cycle s, Cycle d) {
                times[b].tagStart = s;
                times[b].tagDone = d;
            });
        banks[b]->dataArray().setGrantHandlerTap(
            [&times, b](const ArbRequest &, Cycle s, Cycle d) {
                times[b].dataStart = s;
                times[b].dataDone = d;
            });
        banks[b]->dataBus().setGrantHandlerTap(
            [&times, b](const ArbRequest &, Cycle s, Cycle d) {
                times[b].busStart = s;
                times[b].busDone = d;
            });
    }

    // Issue the two back-to-back reads (bank 1 one cycle later, as in
    // the figure).
    Cycle t0 = sim.now() + (sim.now() % 2); // align to an L2 cycle
    while (sim.now() < t0)
        sim.step();
    times[0].arrive = sim.now();
    banks[0]->loadArrive(0, 0x0, sim.now());
    sim.step();
    sim.step();
    times[1].arrive = sim.now();
    banks[1]->loadArrive(0, 0x40, sim.now());
    while (!(banks[0]->quiesced() && banks[1]->quiesced()))
        sim.step();

    TablePrinter t("Figure 4: back-to-back reads to different banks "
                   "(cycles relative to first arrival; +2 request "
                   "crossbar cycles precede arrival)",
                   {"Stage", "Bank 1", "Bank 2"}, 14);
    Cycle base = times[0].arrive;
    auto rel = [base](Cycle c) {
        return std::to_string(static_cast<long long>(c - base) + 2);
    };
    t.row({"Tag array", rel(times[0].tagStart) + "-" +
           rel(times[0].tagDone), rel(times[1].tagStart) + "-" +
           rel(times[1].tagDone)});
    t.row({"Data array", rel(times[0].dataStart) + "-" +
           rel(times[0].dataDone), rel(times[1].dataStart) + "-" +
           rel(times[1].dataDone)});
    t.row({"Data bus", rel(times[0].busStart) + "-" +
           rel(times[0].busDone), rel(times[1].busStart) + "-" +
           rel(times[1].busDone)});
    t.row({"Critical word", rel(times[0].critical),
           rel(times[1].critical)});
    t.rule();

    bool ok = (times[0].critical - times[0].arrive) + 2 == 16 &&
              (times[0].busDone - times[0].arrive) + 2 == 22;
    std::printf("critical word at %lld cycles (paper: 16), full line "
                "at %lld (paper: 22): %s\n",
                static_cast<long long>(times[0].critical -
                                       times[0].arrive + 2),
                static_cast<long long>(times[0].busDone -
                                       times[0].arrive + 2),
                ok ? "MATCH" : "MISMATCH");
    rep.addRun(sim.now(), sim.kernelStats());
    rep.finish();
    rep.printSummary();
    rep.writeJson();
    return ok ? 0 : 1;
}
