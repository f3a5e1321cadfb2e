/**
 * @file
 * Enforces the SweepRunner determinism contract (docs/INTERNALS.md,
 * "Experiment runner"): running the same ExperimentPlan at --jobs 1
 * and --jobs 8 must produce identical results point for point —
 * identical RunStats (cycles, per-cause stall buckets, thread stats),
 * a byte-identical "procoup-stats-bundle/1" JSON bundle — and the
 * stall accounting identity must hold for every point. Also checks
 * the CompileCache actually serves hits when a cache is shared across
 * runs, and that plan filtering subsets by label substring.
 */

#include <gtest/gtest.h>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/harness.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/suites.hh"
#include "procoup/sim/stats.hh"

namespace {

using namespace procoup;

exp::SweepResult
runTable2(const exp::ExperimentPlan& plan, int jobs,
          exp::CompileCache* cache)
{
    exp::RunnerOptions opts;
    opts.jobs = jobs;
    opts.cache = cache;
    opts.exitOnVerifyFailure = false;
    exp::SweepRunner runner(opts);
    return runner.run(plan);
}

TEST(SweepDeterminism, Table2IdenticalAtAnyJobCount)
{
    const exp::ExperimentPlan plan = exp::table2BaselinePlan();
    // Every registry benchmark in every mode it supports.
    std::size_t expected = 0;
    for (const auto& b : benchmarks::all())
        expected += 4 + (b.hasIdeal() ? 1 : 0);
    ASSERT_EQ(plan.size(), expected);

    exp::CompileCache cache;  // shared: second run must hit
    const exp::SweepResult serial = runTable2(plan, 1, &cache);
    const exp::SweepResult parallel = runTable2(plan, 8, &cache);

    ASSERT_EQ(serial.outcomes.size(), plan.size());
    ASSERT_EQ(parallel.outcomes.size(), plan.size());
    EXPECT_EQ(serial.jobs, 1);
    EXPECT_EQ(parallel.jobs, 8);

    for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto& a = serial.outcomes[i];
        const auto& b = parallel.outcomes[i];
        SCOPED_TRACE(plan.points()[i].label);

        // Outcomes come back in plan order regardless of job count.
        EXPECT_EQ(a.point, &plan.points()[i]);
        EXPECT_EQ(b.point, &plan.points()[i]);

        // Verification succeeded on both sides.
        EXPECT_EQ(a.error, "");
        EXPECT_EQ(b.error, "");

        // Full stats equality: cycles, per-FU issue counts, every
        // stall bucket, memory counters, per-thread stats.
        EXPECT_EQ(a.result.stats, b.result.stats);

        // And the stall accounting identity holds for each point:
        // cycles x FUs == issued + sum of attributed stall cycles.
        EXPECT_TRUE(a.result.stats.accountingBalanced());
    }

    // The JSON bundle a harness would write with --stats-json is
    // byte-identical at any job count.
    EXPECT_EQ(exp::formatStatsBundle(serial),
              exp::formatStatsBundle(parallel));
}

TEST(SweepDeterminism, SharedCacheServesHitsAcrossRuns)
{
    const exp::ExperimentPlan plan = exp::table2BaselinePlan();
    exp::CompileCache cache;

    const exp::SweepResult first = runTable2(plan, 4, &cache);
    // Every Table-2 point has a distinct (source, mode) pair, so the
    // first pass is all misses...
    EXPECT_EQ(first.cacheStats.hits, 0u);
    EXPECT_EQ(first.cacheStats.misses, plan.size());
    for (const auto& o : first.outcomes)
        EXPECT_FALSE(o.compileCached);

    // ...and a second pass over the same plan never recompiles.
    const exp::SweepResult second = runTable2(plan, 4, &cache);
    EXPECT_EQ(second.cacheStats.hits, plan.size());
    EXPECT_EQ(second.cacheStats.misses, 0u);
    for (const auto& o : second.outcomes)
        EXPECT_TRUE(o.compileCached);
}

TEST(SweepDeterminism, RuntimeKnobSweepsShareCompiles)
{
    // Interconnect scheme is runtime-only: five machines that differ
    // only in interconnect must compile once.
    exp::ExperimentPlan plan("cache_sharing");
    const auto& bm = benchmarks::matrix();
    for (auto scheme :
         {config::InterconnectScheme::Full,
          config::InterconnectScheme::TriPort,
          config::InterconnectScheme::DualPort,
          config::InterconnectScheme::SinglePort,
          config::InterconnectScheme::SharedBus})
        plan.addBenchmark(
            config::withInterconnect(config::baseline(), scheme), bm,
            core::SimMode::Coupled,
            exp::ExperimentPlan::benchmarkLabel(
                bm, core::SimMode::Coupled,
                config::withInterconnect(config::baseline(), scheme)));

    exp::CompileCache cache;
    const exp::SweepResult res = runTable2(plan, 4, &cache);
    EXPECT_EQ(res.cacheStats.misses, 1u);
    EXPECT_EQ(res.cacheStats.hits, plan.size() - 1);
}

TEST(SweepDeterminism, FilterSubsetsByLabelSubstring)
{
    const exp::ExperimentPlan plan = exp::table2BaselinePlan();
    const exp::ExperimentPlan matrix = plan.filtered("Matrix");
    ASSERT_EQ(matrix.size(), 5u);
    for (const auto& p : matrix.points())
        EXPECT_NE(p.label.find("Matrix"), std::string::npos);
    EXPECT_EQ(plan.filtered("no-such-label").size(), 0u);
}

TEST(SweepDeterminism, LabelLookupFindsEveryPoint)
{
    const exp::ExperimentPlan plan = exp::table2BaselinePlan();
    exp::CompileCache cache;
    const exp::SweepResult res = runTable2(plan, 8, &cache);
    for (const auto& bm : benchmarks::all())
        for (auto mode : core::allSimModes()) {
            if (mode == core::SimMode::Ideal && !bm.hasIdeal())
                continue;
            const auto& o = res.at(exp::ExperimentPlan::benchmarkLabel(
                bm, mode, config::baseline()));
            EXPECT_EQ(o.point->benchmarkId, bm.id);
        }
}

} // namespace
