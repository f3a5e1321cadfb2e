#include "procoup/exp/runner.hh"

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/exp/journal.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::atomic<int> g_stopSignal{0};

void
stopSignalHandler(int sig)
{
    g_stopSignal.store(sig);
}

/** While alive, SIGINT/SIGTERM request a graceful drain (flag checked
 *  by every point-claiming loop) instead of killing the process with
 *  a torn WAL tail. Armed only for journaled sweeps — unjournaled
 *  runs keep their default signal disposition. */
struct ScopedStopSignals
{
    explicit ScopedStopSignals(bool arm) : armed(arm)
    {
        if (!armed)
            return;
        g_stopSignal.store(0);
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = stopSignalHandler;
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~ScopedStopSignals()
    {
        if (!armed)
            return;
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
    }

    bool armed;
    struct sigaction oldInt, oldTerm;
};

bool
sweepStopRequested()
{
    return g_stopSignal.load() != 0;
}

/** Do the per-FU and per-cluster stats vectors of @p stored, a
 *  journaled outcome, fit @p point's machine? A checksum-valid record
 *  that disagrees (written for another machine shape, or corrupted
 *  behind a valid checksum) must not replay: the report and stats
 *  renderers index these vectors by the machine's FU and cluster
 *  numbers. Failed records carry no stats and always fit. */
bool
recordFitsMachine(const RunOutcome& stored, const SweepPoint& point)
{
    if (stored.failed)
        return true;
    const auto fus = static_cast<std::size_t>(point.machine.numFus());
    const std::size_t clusters = point.machine.clusters.size();
    const sim::RunStats& st = stored.result.stats;
    return st.opsByFu.size() == fus && st.stallsByFu.size() == fus &&
           st.stallsByCluster.size() == clusters &&
           st.wbGrantsByCluster.size() == clusters &&
           st.wbDenialsByCluster.size() == clusters;
}

} // namespace

const RunOutcome&
SweepResult::at(const std::string& label) const
{
    for (const auto& o : outcomes)
        if (o.point->label == label)
            return o;
    PROCOUP_PANIC(strCat("no sweep outcome labeled ", label));
}

std::size_t
SweepResult::failedCount() const
{
    std::size_t n = 0;
    for (const auto& o : outcomes)
        n += o.failed ? 1 : 0;
    return n;
}

SweepRunner::SweepRunner(RunnerOptions options)
    : _options(std::move(options))
{
    if (_options.cache) {
        _cache = _options.cache;
    } else {
        _ownedCache = std::make_unique<CompileCache>();
        _cache = _ownedCache.get();
    }
}

int
SweepRunner::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

RunOutcome
executeSweepPoint(const SweepPoint& point, CompileCache& cache,
                  const RunnerOptions& options)
{
    const auto start = std::chrono::steady_clock::now();
    RunOutcome out;
    out.point = &point;

    auto compiled = cache.compile(point.source, point.machine,
                                  point.options, &out.compileCached);

    core::CoupledNode node(point.machine);
    auto run_and_verify = [&](const sim::SimOptions& sim_opts) {
        out.result = node.run(compiled->program, sim_opts,
                              point.tracer, point.traceStalls);
        out.result.compiled.funcInfo = compiled->funcInfo;
        if (!point.verifyBenchmark.empty()) {
            std::string why;
            if (!benchmarks::verify(point.verifyBenchmark, out.result,
                                    &why))
                out.error = strCat(point.verifyBenchmark, "/",
                                   core::simModeName(point.mode),
                                   " computed a wrong result: ", why);
        }
    };

    try {
        run_and_verify(point.simOptions);
    } catch (const SimError& e) {
        if (!options.failSafe)
            throw;
        // Graceful degradation: this point becomes a structured error
        // record; the pool and every other point are unaffected.
        // Bounded retries under reseeded fault plans distinguish "this
        // fault schedule was unlucky" from a real failure — but the
        // *first* error is what gets recorded, so the record stays
        // deterministic. A retry runs at once: it contends for
        // nothing another point holds, so there is nothing to wait out.
        bool recovered = false;
        if (options.retryFaulted && point.simOptions.faults.enabled) {
            for (int retry = 1; retry <= options.retries && !recovered;
                 ++retry) {
                out.retries = retry;
                sim::SimOptions retry_opts = point.simOptions;
                retry_opts.faults = retry_opts.faults.reseeded(
                    point.simOptions.faults.seed *
                        0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(retry));
                try {
                    run_and_verify(retry_opts);
                    recovered = true;
                } catch (const SimError&) {
                }
            }
        }
        if (!recovered) {
            out.result = core::RunResult{};
            out.failed = true;
            out.errorKind = e.kind();
            out.errorCycle = e.cycle();
            out.error = e.what();
        }
    }
    out.wallMs = msSince(start);
    return out;
}

SweepResult
SweepRunner::run(const ExperimentPlan& plan)
{
    const auto start = std::chrono::steady_clock::now();
    const auto cache_before = _cache->stats();

    SweepResult res;
    res.jobs = resolveJobs(_options.jobs);
    res.outcomes.resize(plan.size());
    std::vector<std::exception_ptr> failures(plan.size());

    // ---- Journal: replay recorded points, execute the rest. A point
    // with a tracer attached never replays (tracing is an
    // observational side effect a replay cannot reproduce).
    ResultsJournal journal;
    const bool journal_on = !_options.journalDir.empty() &&
                            journal.open(_options.journalDir, plan);
    if (!_options.journalDir.empty() && !journal_on)
        std::fprintf(stderr,
                     "warning: cannot open results journal in %s; "
                     "running without one\n",
                     _options.journalDir.c_str());

    std::vector<std::string> fps(plan.size());
    std::vector<std::size_t> pending;
    pending.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const SweepPoint& p = plan.points()[i];
        if (journal_on && !p.tracer) {
            fps[i] = pointFingerprint(p);
            RunOutcome& o = res.outcomes[i];
            if (journal.find(fps[i], &o) && recordFitsMachine(o, p)) {
                o.point = &p;
                o.replayed = true;
                ++res.replayedPoints;
                continue;
            }
        }
        pending.push_back(i);
    }

    // SIGINT/SIGTERM on a journaled sweep mean "drain and keep the
    // WAL resumable", not "die mid-append".
    ScopedStopSignals stop_guard(journal_on);
    std::atomic<std::size_t> journaled{journal.loadedCount()};

    // Runs on whichever thread claimed point i (append is
    // thread-safe). Verify failures are *not* journaled: they must
    // re-execute (and re-fail) on resume.
    auto work = [&](std::size_t i) {
        try {
            const RunOutcome& o = res.outcomes[i] =
                executeSweepPoint(plan.points()[i], *_cache, _options);
            if (journal_on && !fps[i].empty() &&
                (o.error.empty() || o.failed)) {
                journal.append(o, fps[i]);
                ++journaled;
            }
        } catch (...) {
            failures[i] = std::current_exception();
        }
    };

    if (res.jobs <= 1 || pending.size() <= 1) {
        // Inline: exactly the legacy serial loop, same thread.
        for (std::size_t i : pending) {
            if (sweepStopRequested())
                break;
            work(i);
        }
    } else {
        std::atomic<std::size_t> next{0};
        const int workers = std::min<std::size_t>(res.jobs, pending.size());
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                for (std::size_t n = next.fetch_add(1); n < pending.size();
                     n = next.fetch_add(1)) {
                    if (sweepStopRequested())
                        break;
                    work(pending[n]);
                }
            });
        for (auto& t : pool)
            t.join();
    }

    // ---- Interrupted drain: every in-flight point has finished and
    // been journaled; flush-and-close the WAL so it resumes cleanly,
    // then exit with the conventional fatal-signal code. std::exit
    // skips destructors, hence the explicit close.
    if (const int sig = g_stopSignal.load()) {
        journal.close();
        std::fprintf(stderr,
                     "interrupted by %s: %zu of %zu points journaled "
                     "in %s; rerun to resume\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT",
                     journaled.load(), plan.size(),
                     _options.journalDir.c_str());
        std::exit(128 + sig);
    }

    // Deterministic reduction: failures surface in plan order.
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (failures[i])
            std::rethrow_exception(failures[i]);

    // Fail-safe-captured simulation failures (o.failed) are data, not
    // verification failures — only wrong *results* are fatal here.
    bool verify_failed = false;
    for (const auto& o : res.outcomes)
        if (!o.error.empty() && !o.failed) {
            verify_failed = true;
            if (_options.exitOnVerifyFailure)
                std::fprintf(stderr, "FATAL: %s\n", o.error.c_str());
        }
    if (verify_failed && _options.exitOnVerifyFailure)
        std::exit(1);

    // Every journalable point has a record now (we only get here with
    // no exceptions, and verify failures stay unjournaled on purpose):
    // publish the finalized journal.
    if (journal_on && !verify_failed)
        journal.finalize();

    const auto cache_after = _cache->stats();
    res.cacheStats.hits = cache_after.hits - cache_before.hits;
    res.cacheStats.misses = cache_after.misses - cache_before.misses;
    res.wallMs = msSince(start);
    return res;
}

} // namespace exp
} // namespace procoup
