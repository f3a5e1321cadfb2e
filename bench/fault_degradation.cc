/**
 * @file
 * Degradation curve: throughput (ops/cycle) of the statically
 * scheduled (STS), threaded (TPE), and coupled machines as the
 * deterministic fault-injection intensity rises from 0 (clean) to 1
 * (every fault class at its full atIntensity() rate).
 *
 * The paper's thesis — runtime coupling masks unpredictable memory
 * latency — predicts the coupled machine's throughput retention
 * (throughput at intensity x over clean throughput) should be no
 * worse than the uncoupled STS machine's. The injected classes are
 * therefore the memory ones (jitter, miss bursts, bank storms):
 * exactly the "unpredictable latency" the runtime arbitration was
 * built to hide. FU bubbles and spawn delays are deliberately left
 * out — they tax issue bandwidth itself, not latency, and so say
 * nothing about latency masking (run any harness with --faults=X for
 * the full mix). Every point still verifies its benchmark result:
 * faults perturb timing only, never values.
 *
 * Two figures of merit per (benchmark, mode):
 *
 *   retention      = throughput(f=1) / throughput(f=0). Intuitive but
 *                    biased: the same absolute injected delay is a
 *                    larger fraction of a faster machine's shorter
 *                    runtime, so a high clean throughput *lowers*
 *                    retention even under perfect masking.
 *   amplification  = (cycles(f=1) - cycles(0)) / injected delay
 *                    cycles — how many wall cycles each injected
 *                    fault cycle costs. 0 = fully masked, 1 = fully
 *                    serialized. This is the unbiased masking metric
 *                    and the headline: coupled must amplify no worse
 *                    than the uncoupled STS machine.
 *
 * The harness checks the headline itself: when Coupled's mean
 * amplification exceeds STS's by more than 1e-3, it prints the two
 * means on stderr and exits 1 after the table (stdout is unchanged).
 * --filter skips the table and so the check.
 *
 * The fault plan is runtime-only, so the compile cache shares one
 * compilation per (benchmark, mode) across all intensities.
 */

#include <cstdio>
#include <vector>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/harness.hh"
#include "procoup/fault/fault.hh"
#include "procoup/support/strings.hh"
#include "procoup/support/table.hh"

using namespace procoup;

namespace {

/** The memory fault classes of atIntensity(x), nothing else. */
fault::FaultPlan
memoryFaults(double intensity)
{
    fault::FaultPlan p = fault::FaultPlan::atIntensity(intensity);
    p.fuBubbleProb = 0.0;
    p.spawnDelayProb = 0.0;
    return p;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75,
                                             1.0};
    const std::vector<core::SimMode> modes = {
        core::SimMode::Sts, core::SimMode::Tpe, core::SimMode::Coupled};
    const config::MachineConfig machine =
        config::withMem1(config::baseline());

    exp::ExperimentPlan plan("fault_degradation");
    for (const auto& b : benchmarks::all())
        for (auto mode : modes)
            for (double x : intensities) {
                exp::SweepPoint& p = plan.addBenchmark(
                    machine, b, mode,
                    strCat(exp::ExperimentPlan::benchmarkLabel(
                               b, mode, machine),
                           "+faults=", fixed(x, 2)));
                p.simOptions.faults = memoryFaults(x);
            }

    bool masksWorse = false;
    const int rc = exp::harnessMain(plan, argc, argv, [&](
                                        const exp::SweepResult& sweep) {
        std::printf("Degradation under deterministic fault "
                    "injection (Mem1 baseline)\n\n");
        TextTable t;
        std::vector<std::string> hdr = {"Benchmark", "Mode"};
        for (double x : intensities)
            hdr.push_back(strCat("f=", fixed(x, 2)));
        hdr.push_back("retention");
        hdr.push_back("amplification");
        t.header(hdr);

        // Retention and latency amplification at full intensity,
        // averaged per mode.
        std::vector<double> keep_sum(modes.size(), 0.0);
        std::vector<double> amp_sum(modes.size(), 0.0);
        std::vector<int> n(modes.size(), 0);

        auto outcome = sweep.outcomes.begin();
        for (const auto& b : benchmarks::all()) {
            for (std::size_t mi = 0; mi < modes.size(); ++mi) {
                std::vector<double> tput;
                std::uint64_t clean_cycles = 0;
                std::uint64_t worst_cycles = 0;
                std::uint64_t injected = 0;
                for (std::size_t k = 0; k < intensities.size(); ++k) {
                    const auto& st = (outcome++)->result.stats;
                    tput.push_back(
                        st.cycles
                            ? static_cast<double>(st.totalOps) /
                                  static_cast<double>(st.cycles)
                            : 0.0);
                    if (k == 0)
                        clean_cycles = st.cycles;
                    if (k + 1 == intensities.size()) {
                        worst_cycles = st.cycles;
                        injected = st.faults.memJitterCycles +
                                   st.faults.memBurstCycles +
                                   st.faults.bankStormDelayCycles +
                                   st.faults.fuBubbleCycles +
                                   st.faults.spawnDelayCycles;
                    }
                }
                const double keep =
                    tput.front() > 0.0 ? tput.back() / tput.front()
                                       : 0.0;
                const double amp =
                    injected ? static_cast<double>(worst_cycles -
                                                   clean_cycles) /
                                   static_cast<double>(injected)
                             : 0.0;
                keep_sum[mi] += keep;
                amp_sum[mi] += amp;
                ++n[mi];
                std::vector<std::string> row = {
                    b.name, core::simModeName(modes[mi])};
                for (double v : tput)
                    row.push_back(fixed(v, 3));
                row.push_back(fixed(keep, 3));
                row.push_back(fixed(amp, 3));
                t.row(row);
            }
            t.separator();
        }
        std::printf("%s\n", t.render().c_str());

        std::printf("averages at intensity %s by mode "
                    "(amplification: wall cycles per injected fault "
                    "cycle, lower is better):\n",
                    fixed(intensities.back(), 2).c_str());
        for (std::size_t mi = 0; mi < modes.size(); ++mi)
            std::printf("  %-7s retention %s  amplification %s\n",
                        core::simModeName(modes[mi]).c_str(),
                        fixed(keep_sum[mi] / n[mi], 3).c_str(),
                        fixed(amp_sum[mi] / n[mi], 3).c_str());

        // The paper's thesis: runtime coupling masks unpredictable
        // memory latency at least as well as the static schedule.
        // `modes` lists STS first and Coupled last.
        const double sts = amp_sum.front() / n.front();
        const double coupled = amp_sum.back() / n.back();
        if (coupled > sts + 1e-3) {
            masksWorse = true;
            std::fprintf(stderr,
                         "fault_degradation: Coupled amplifies injected "
                         "latency worse than STS (%s > %s)\n",
                         fixed(coupled, 4).c_str(),
                         fixed(sts, 4).c_str());
        }
    });
    return rc != 0 ? rc : (masksWorse ? 1 : 0);
}
