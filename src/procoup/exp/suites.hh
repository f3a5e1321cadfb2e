#ifndef PROCOUP_EXP_SUITES_HH
#define PROCOUP_EXP_SUITES_HH

/**
 * @file
 * Canonical experiment plans for the paper's evaluation grids that
 * more than one binary needs: the bench harnesses build them for
 * table rendering, tests/sweep_determinism_test.cc replays them at
 * different --jobs counts, and perfbench's table2-grid workload times
 * the engine on them.
 */

#include "procoup/exp/plan.hh"

namespace procoup {
namespace exp {

/**
 * The Table 2 / Figure 4 grid: every registry benchmark in every
 * simulation mode (skipping Ideal where the benchmark has none) on
 * the baseline machine, in benchmark-major, paper-mode order.
 */
ExperimentPlan table2BaselinePlan();

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_SUITES_HH
