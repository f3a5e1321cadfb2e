#ifndef PROCOUP_EXP_RUNNER_HH
#define PROCOUP_EXP_RUNNER_HH

/**
 * @file
 * Parallel, compile-cached, crash-safe execution of an ExperimentPlan.
 *
 * The SweepRunner executes every point of a plan on a pool of
 * std::thread workers (--jobs N; jobs=1 runs everything inline on the
 * calling thread, preserving the legacy serial behavior exactly).
 * Each point is independent work — compile via the shared
 * CompileCache, simulate on a private Simulator, verify against the
 * C++ reference — so the pool partitions over points and a
 * deterministic reduction collects outcomes.
 *
 * Determinism contract: outcomes are returned in plan order, each
 * point's simulation owns all of its mutable state (including its RNG
 * stream, see support/rng.hh), and the compile cache memoizes a pure
 * function. Stats, rendered tables, --stats-json bundles, and
 * verification output are therefore byte-identical at any job count;
 * tests/sweep_determinism_test.cc enforces this.
 *
 * Verification failures do not abort mid-sweep from a worker thread:
 * they are collected and reported on stderr in plan order after the
 * pool drains, and the process exits 1 (the same observable contract
 * the serial harnesses had).
 *
 * Durability (journalDir): each completed point is appended to a
 * write-ahead results journal (exp/journal.hh) before the sweep moves
 * on; re-running an interrupted sweep replays the recorded points
 * bit-identically — no recompile, no re-simulation — and executes
 * only the remainder. Verify-failed points are deliberately not
 * journaled: they re-execute on resume so the failure reproduces.
 * SIGINT/SIGTERM on a journaled sweep drain the pool (in-flight
 * points finish and are journaled), close the log, and exit
 * 128+signal.
 *
 * Every point runs in this process. Fail-safe mode (failSafe) turns a
 * simulation that throws SimError into a structured error record; a
 * point that crashes the process outright (a simulator bug) stops the
 * sweep, and the journal lets the rerun resume past what finished.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "procoup/core/node.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/outcome.hh"
#include "procoup/exp/plan.hh"

namespace procoup {
namespace exp {

struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int jobs = 0;

    /** Share an external compile cache (e.g. across a harness's
     *  plans, or pcsim's dump path); nullptr = runner-owned cache. */
    CompileCache* cache = nullptr;

    /** Abort the process on a verification failure (default), or
     *  leave the failure in RunOutcome::error for the caller. */
    bool exitOnVerifyFailure = true;

    /**
     * Fail-safe execution: a point whose *simulation* throws SimError
     * (deadlock, exhausted budget, sanitizer violation, runtime
     * misbehavior) becomes a structured error record in its RunOutcome
     * instead of killing the sweep after the pool drains. Compile
     * errors still propagate — a malformed plan is a caller bug, not a
     * run hazard. Off by default: ad-hoc callers keep exception
     * semantics.
     */
    bool failSafe = false;

    /** Under failSafe: retry a failed point under reseeded fault
     *  plans, up to `retries` times, before recording the failure
     *  (points without a fault plan are never retried — their
     *  failures are deterministic). */
    bool retryFaulted = false;

    /** Retries of --retry-faulted beyond the first attempt. */
    int retries = 2;

    /** Write-ahead results journal directory ("" = no journal). */
    std::string journalDir;
};

/** All outcomes of one plan execution, in plan order. */
struct SweepResult
{
    std::vector<RunOutcome> outcomes;
    CompileCache::Stats cacheStats;
    double wallMs = 0.0;  ///< whole-sweep wall-clock
    int jobs = 1;         ///< resolved worker count

    /** Points restored from the journal instead of executed. */
    std::size_t replayedPoints = 0;

    /** Outcome of the point labeled @p label. @throws if absent */
    const RunOutcome& at(const std::string& label) const;

    /** Points whose simulation failed (fail-safe mode only). */
    std::size_t failedCount() const;
};

/** Execute one point exactly as SweepRunner does: compile via
 *  @p cache, simulate, verify, fail-safe capture with bounded
 *  reseeded-fault retries. */
RunOutcome executeSweepPoint(const SweepPoint& point, CompileCache& cache,
                             const RunnerOptions& options);

class SweepRunner
{
  public:
    explicit SweepRunner(RunnerOptions options = {});

    /** Execute every point of @p plan; outcomes in plan order. The
     *  plan must outlive the returned result (outcomes point into
     *  it). Worker exceptions (e.g. CompileError) are rethrown on the
     *  calling thread, first failing point in plan order. */
    SweepResult run(const ExperimentPlan& plan);

    CompileCache& cache() { return *_cache; }

    /** The worker count @p requested resolves to (0 -> hardware). */
    static int resolveJobs(int requested);

  private:
    RunnerOptions _options;
    std::unique_ptr<CompileCache> _ownedCache;
    CompileCache* _cache;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_RUNNER_HH
