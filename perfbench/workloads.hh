#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

/**
 * @file
 * The benchmark's workloads and the two ways it runs one pass of them.
 *
 * An untraced pass drives the sweep engine the way the bench harnesses
 * do (one SweepRunner, --jobs 1) on a fresh compile cache and times
 * set-up, sweep and check from outside. A traced pass calls each
 * layer's public functions itself, records a span around every call,
 * and must reproduce the untraced pass bit for bit.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "procoup/exp/cache.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/gen/soak.hh"

#include "spans.hh"

namespace perfbench {

namespace exp = procoup::exp;
namespace gen = procoup::gen;

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string>& workloadNames();

/** One workload's points. Built afresh for every pass (plan build and,
 *  on fuzz-soak, program generation are part of set-up). */
struct Workload
{
    exp::ExperimentPlan plan{""};
    std::optional<gen::SoakPlan> soak;  ///< fuzz-soak only

    const exp::ExperimentPlan& points() const
    {
        return soak ? soak->plan : plan;
    }
};

/**
 * Build @p name's points for workload seed @p seed. fuzz-soak
 * generates 400 programs, from seed 1 + 400 * seed on; the Mem1/Mem2
 * miss process is seeded with 1 + seed. Seed 0 thus reproduces
 * bench/fig7_memlatency's memory model and extends bench/fuzz_soak's
 * default range. table2-grid has no random input.
 * @throws std::invalid_argument on an unknown name
 */
std::unique_ptr<Workload> buildWorkload(const std::string& name,
                                        std::uint64_t seed);

/** Exact counters, keyed by their metric names. */
using Counts = std::map<std::string, std::uint64_t>;

/** One untraced pass. Keeps its plan, cache and sweep alive so a
 *  traced pass can be checked against it. */
struct PassResult
{
    double setupS = 0.0;  ///< plan build, generation, cold compiles
    double wallS = 0.0;   ///< set-up + sweep + verify/analyze

    std::uint64_t simCycles = 0;
    std::vector<double> pointMs;  ///< RunOutcome::wallMs, warm cache

    /** The rest of the pass in ms, as steps that repeat in the same
     *  order every pass: plan build, each set-up compile call, the
     *  runner's own time between points, the check. With pointMs they
     *  add up to wallS. */
    std::vector<double> stepMs;

    std::size_t attempted = 0;
    std::vector<std::string> failures;  ///< one line per failed point

    exp::CompileCache::Stats setupCache;
    Counts counts;
    std::uint64_t digest = 0;  ///< over every RunStats, memory, program

    /** Mean |ln(measured/paper)|; empty where the paper has no
     *  reference (fuzz-soak). */
    std::optional<double> paperErr;

    std::unique_ptr<Workload> workload;
    std::unique_ptr<exp::CompileCache> cache;
    exp::SweepResult sweep;
};

PassResult runPass(const std::string& name, std::uint64_t seed);

/** One traced pass replaying @p ref's points layer by layer. */
struct TracedPass
{
    SpanRecorder spans;

    /** Wall-clock of the pass minus the replay and comparison work it
     *  adds, so it compares with an untraced pass's wall time. */
    double tracedMs = 0.0;

    std::vector<double> probeUs;  ///< warm CompileCache::compile calls

    Counts counts;

    /** Exactness violations: any difference from @p ref. */
    std::vector<std::string> mismatches;
};

TracedPass runTracedPass(const PassResult& ref);

/**
 * Self time per layer of @p tp, keyed by per-layer metric name:
 * milliseconds per pass, plus sim.run_ms.<Benchmark> and
 * sim.run_ms.<MODE> over @p plan's points. Every name is present,
 * zero where the workload does not reach the layer.
 */
std::map<std::string, double> layerTimes(const TracedPass& tp,
                                         const exp::ExperimentPlan& plan);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
