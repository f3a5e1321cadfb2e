#ifndef PROCOUP_EXP_HARNESS_HH
#define PROCOUP_EXP_HARNESS_HH

/**
 * @file
 * Shared main() scaffolding for the experiment harnesses under
 * `bench/`. A harness builds an ExperimentPlan and calls
 * harnessMain(); everything else — flag parsing, the thread pool, the
 * compile cache, stats bundles, sweep reports — is implemented once
 * here. Every point runs in this process, on SweepRunner's pool.
 *
 * Flags every runner-based harness accepts. A flag that takes a
 * value accepts it as the next argument or after '=' (--jobs 4,
 * --jobs=4). A numeric value must be the whole argument and in range
 * (parseNumber in support/strings.hh): "3x", "abc" or an empty value
 * is a usage error. The first six are also pcsim's (parseSweepFlag):
 *
 *   --jobs N            worker threads (default: hardware concurrency;
 *                       1 = legacy serial execution)
 *   --sanitize[=N]      re-validate simulator invariants every N
 *                       cycles on every point (default N = 1024)
 *   --faults X          attach fault::FaultPlan::atIntensity(X) to
 *                       every point (stats bundles switch to schema
 *                       procoup-stats/2 with a "faults" block)
 *   --fault-seed S      seed of the --faults fault RNG stream
 *   --fail-safe         record a point whose simulation throws
 *                       (deadlock, budget, sanitizer) as a structured
 *                       error record and keep the sweep running
 *   --journal DIR       write-ahead results journal: every completed
 *                       point is durably recorded in DIR; re-running
 *                       after a crash replays recorded points
 *                       bit-identically and executes only the rest
 *   --list              print every sweep-point label and exit
 *   --filter SUBSTRING  run only points whose label contains SUBSTRING
 *                       and print a per-point summary instead of the
 *                       harness's full table rendering
 *   --stats-json FILE   write a "procoup-stats-bundle/1" JSON bundle
 *                       with every executed point's stall-cause
 *                       attribution
 *   --sweep-report FILE write a "procoup-sweep/1" JSON record of the
 *                       sweep's wall-clock, job count, and compile-
 *                       cache hit rate
 *   --retry-faulted     with --fail-safe: retry a failed faulted
 *                       point at once under reseeded fault plans,
 *                       at most --retries times
 *   --retries N         retry budget of --retry-faulted (default 2)
 *
 * Output determinism: the rendering callback runs after the sweep
 * completes, over outcomes in plan order, so harness output is
 * byte-identical at any --jobs count — and, for journaled sweeps, at
 * any interruption point. New report/bundle keys appear only when the
 * corresponding flag is on, so existing outputs stay byte-identical.
 */

#include <functional>
#include <string>

#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"

namespace procoup {
namespace exp {

/** Parsed common harness flags. */
struct HarnessOptions
{
    int jobs = 0;  ///< 0 = hardware concurrency
    bool list = false;
    std::string filter;
    std::string statsJsonPath;
    std::string sweepReportPath;

    /** Sanitizer cadence applied to every point (0 = off). */
    std::uint64_t sanitizeEveryCycles = 0;

    /** Fault intensity applied to every point (0 = no faults). */
    double faultIntensity = 0.0;
    std::uint64_t faultSeed = 1;

    bool failSafe = false;
    bool retryFaulted = false;

    /** Retry budget (--retries): reseeded-fault retries beyond the
     *  first attempt. */
    int retries = 2;

    /** --journal DIR ("" = no journal). */
    std::string journalDir;

    /**
     * Parse the common flags from argv (exits with usage on a
     * malformed or unknown option). All harness binaries accept
     * exactly this flag set.
     */
    static HarnessOptions parse(int argc, char** argv);

    /**
     * If argv[i] is one of the flags pcsim shares with the harnesses
     * (--jobs, --sanitize[=N], --faults, --fault-seed, --fail-safe,
     * --journal), store it, step @p i past its value and return true;
     * return false for any other argument. A missing or malformed
     * value calls @p usage, which must not return.
     */
    bool parseSweepFlag(int argc, char** argv, int& i,
                        void (*usage)(const char* argv0));

    /** Apply --sanitize and --faults to every point of @p plan. */
    void applyTo(ExperimentPlan& plan) const;

    /** The SweepRunner options these flags select. */
    RunnerOptions runnerOptions() const;
};

/**
 * Execute @p plan under @p options and hand the outcomes to
 * @p render. Handles --list (prints labels, no runs), --filter (runs
 * the matching subset and prints per-point summaries instead of
 * calling @p render), the --stats-json bundle, and the --sweep-report
 * record. @return process exit code.
 */
int runHarness(const ExperimentPlan& plan, const HarnessOptions& options,
               const std::function<void(const SweepResult&)>& render);

/** Parse-and-run convenience: the usual last line of a harness main. */
int harnessMain(const ExperimentPlan& plan, int argc, char** argv,
                const std::function<void(const SweepResult&)>& render);

/** Render the "procoup-stats-bundle/1" JSON for @p result (one entry
 *  per executed point, labeled with the point's label). A bundle
 *  containing fail-safe error records is "procoup-stats-bundle/2":
 *  failed points carry an "error" object instead of "stats". */
std::string formatStatsBundle(const SweepResult& result);

/** Render the "procoup-sweep/1" JSON sweep report — or /2, with a
 *  "failures" array, when any point failed under --fail-safe. */
std::string formatSweepReport(const ExperimentPlan& plan,
                              const SweepResult& result,
                              const HarnessOptions& options);

/** num/den as a fixed 2-decimal string ("0.00" when den == 0). */
std::string ratio(double num, double den);

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_HARNESS_HH
