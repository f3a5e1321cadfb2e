/**
 * @file
 * Differential fuzz soak as a standard harness binary.
 *
 * Builds a soak plan (gen/soak.hh) over a contiguous seed range —
 * every generated program x {base, bus} machine x {SEQ, STS, TPE,
 * Coupled}, clean and under a seeded fault plan — runs it on the
 * sweep engine like every other harness (so --jobs, --faults,
 * --sweep-report, the compile cache and fail-safe mode all apply),
 * and checks the generator's invariants in the render step:
 *
 *   - no point may raise SimError;
 *   - every mode reproduces clean SEQ's data symbols bit for bit;
 *   - every faulted run reproduces its clean twin (faults perturb
 *     timing, never values).
 *
 * Any violation is minimized by the delta-debugging reducer and
 * printed as a ready-to-commit corpus witness, and the harness exits
 * 1. The summary is stable "key: value" lines: counts on stdout,
 * which is byte-identical between runs of the same soak, and the host
 * timings wall_ms / programs_per_sec on stderr.
 *
 * Seed range and program count come from the environment (the
 * harness flag set is closed): PROCOUP_FUZZ_FIRST_SEED and
 * PROCOUP_FUZZ_PROGRAMS, defaulting to 1 and 200. Each must be a
 * whole decimal number, and the program count must lie in
 * [1, INT_MAX]; anything else exits 2 before a point runs.
 *
 * The shared --journal DIR flag makes the soak durable: a killed soak
 * resumes from its write-ahead journal instead of starting over, and
 * the summary gains points_replayed / points_executed lines reporting
 * how much of the sweep was restored versus actually run.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "procoup/exp/harness.hh"
#include "procoup/gen/soak.hh"
#include "procoup/support/strings.hh"

using namespace procoup;

namespace {

/** @p name from the environment as a whole decimal number in
 *  [lo, hi], @p fallback when unset or empty; exits 2 otherwise. */
std::uint64_t
envNumber(const char* name, std::uint64_t fallback, std::uint64_t lo,
          std::uint64_t hi)
{
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    std::uint64_t n = 0;
    if (!parseNumber(v, &n) || n < lo || n > hi) {
        std::fprintf(stderr,
                     "%s=%s: want a whole number in [%llu, %llu]\n",
                     name, v, static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
        std::exit(2);
    }
    return n;
}

} // namespace

int
main(int argc, char** argv)
{
    gen::SoakOptions opts;
    opts.firstSeed =
        envNumber("PROCOUP_FUZZ_FIRST_SEED", 1, 0, UINT64_MAX);
    opts.programs = static_cast<int>(
        envNumber("PROCOUP_FUZZ_PROGRAMS", 200, 1, INT_MAX));
    const exp::HarnessOptions options =
        exp::HarnessOptions::parse(argc, argv);

    gen::SoakPlan sp = gen::buildSoakPlan(opts);

    bool bad = false;
    const int rc = exp::runHarness(
        sp.plan, options, [&](const exp::SweepResult& sweep) {
            std::vector<gen::SoakMismatch> mm =
                gen::analyzeSoak(sp, sweep);
            int modeBad = 0, faultBad = 0, simBad = 0;
            for (const auto& m : mm) {
                if (m.kind == "mode-mismatch")
                    ++modeBad;
                else if (m.kind == "fault-mismatch")
                    ++faultBad;
                else
                    ++simBad;
            }

            std::printf("fuzz soak over seeds [%llu, %llu]\n",
                        static_cast<unsigned long long>(opts.firstSeed),
                        static_cast<unsigned long long>(
                            opts.firstSeed + opts.programs - 1));
            std::printf("programs: %d\n", opts.programs);
            std::printf("points: %zu\n", sweep.outcomes.size());
            if (!options.journalDir.empty()) {
                std::printf("points_replayed: %zu\n",
                            sweep.replayedPoints);
                std::printf("points_executed: %zu\n",
                            sweep.outcomes.size() -
                                sweep.replayedPoints);
            }
            // Host timings go to stderr: stdout stays byte-identical
            // between runs.
            std::fprintf(stderr, "wall_ms: %s\n",
                         fixed(sweep.wallMs, 1).c_str());
            std::fprintf(stderr, "programs_per_sec: %s\n",
                         fixed(sweep.wallMs > 0.0
                                   ? opts.programs * 1000.0 /
                                         sweep.wallMs
                                   : 0.0,
                               1)
                             .c_str());
            std::printf("mismatches_mode: %d\n", modeBad);
            std::printf("mismatches_fault: %d\n", faultBad);
            std::printf("mismatches_sim_error: %d\n", simBad);
            std::printf("mismatches_total: %zu\n", mm.size());

            if (!mm.empty()) {
                bad = true;
                gen::reduceMismatches(mm, opts);
                for (const auto& m : mm) {
                    std::printf("\nMISMATCH seed=%llu kind=%s at %s\n"
                                "  %s\nreduced witness:\n%s",
                                static_cast<unsigned long long>(m.seed),
                                m.kind.c_str(), m.label.c_str(),
                                m.detail.c_str(), m.reduced.c_str());
                }
            }
        });
    return rc != 0 ? rc : (bad ? 1 : 0);
}
