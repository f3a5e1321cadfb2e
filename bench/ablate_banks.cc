/**
 * @file
 * Ablation: memory-bank conflicts.
 *
 * The paper's simulator models "no bank conflicts". This ablation
 * runs every benchmark in Coupled mode on the baseline machine with
 * the bank-conflict model off (the paper's assumption) and on, and
 * reports simulated cycles, the cycles the bank model added to
 * arrivals, and the function-unit cycles stalled as memory-bank-busy.
 *
 * The bank model is runtime-only, so the compile cache shares one
 * compilation per benchmark across both settings.
 */

#include <cstdio>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/harness.hh"
#include "procoup/sim/stats.hh"
#include "procoup/support/strings.hh"
#include "procoup/support/table.hh"

using namespace procoup;

namespace {

config::MachineConfig
withBankConflicts(bool on)
{
    auto machine = config::baseline();
    if (on) {
        machine.memory.modelBankConflicts = true;
        machine.name = "baseline-banks";
    }
    return machine;
}

} // namespace

int
main(int argc, char** argv)
{
    exp::ExperimentPlan plan("ablate_banks");
    for (const auto& bm : benchmarks::all())
        for (bool on : {false, true})
            plan.addBenchmark(withBankConflicts(on), bm,
                              core::SimMode::Coupled);

    return exp::harnessMain(plan, argc, argv, [&](
                                const exp::SweepResult& sweep) {
        std::printf("Ablation: memory-bank conflicts (Coupled mode, "
                    "%d banks)\n\n",
                    config::baseline().memory.numBanks);

        const auto busy =
            static_cast<int>(sim::StallCause::MemoryBusy);
        TextTable t;
        t.header({"Benchmark", "cycles off", "cycles on", "slowdown",
                  "bank delay", "bank-busy off", "bank-busy on"});
        auto outcome = sweep.outcomes.begin();
        for (const auto& bm : benchmarks::all()) {
            const auto& off = (outcome++)->result.stats;
            const auto& on = (outcome++)->result.stats;
            t.row({bm.name, strCat(off.cycles), strCat(on.cycles),
                   exp::ratio(static_cast<double>(on.cycles),
                              static_cast<double>(off.cycles)),
                   strCat(on.memBankDelayCycles),
                   strCat(off.stallsTotal[busy]),
                   strCat(on.stallsTotal[busy])});
        }
        std::printf("%s", t.render().c_str());
    });
}
