#include "procoup/exp/harness.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "procoup/fault/fault.hh"
#include "procoup/sched/report.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--jobs N] [--list] [--filter SUBSTRING]\n"
        "       [--stats-json FILE] [--sweep-report FILE]\n"
        "       [--no-compile-cache] [--sanitize[=N]]\n"
        "       [--faults=INTENSITY] [--fault-seed=S]\n"
        "       [--fail-safe] [--retry-faulted] [--retries=N]\n"
        "       [--journal DIR] [--disk-cache DIR] [--no-disk-cache]\n"
        "see src/procoup/exp/harness.hh for flag semantics\n",
        argv0);
    std::exit(1);
}

void
writeFileOrDie(const std::string& path, const std::string& content)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    out << content;
}

} // namespace

HarnessOptions
HarnessOptions::parse(int argc, char** argv)
{
    HarnessOptions o;
    if (const char* env = std::getenv("PROCOUP_DISK_CACHE"))
        o.diskCacheDir = env;
    bool no_disk_cache = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(argv[0]);
            return argv[i];
        };
        if (a == "--jobs") {
            o.jobs = static_cast<int>(
                std::strtol(next().c_str(), nullptr, 10));
            if (o.jobs < 1)
                usage(argv[0]);
        } else if (a.rfind("--jobs=", 0) == 0) {
            o.jobs = static_cast<int>(
                std::strtol(a.c_str() + 7, nullptr, 10));
            if (o.jobs < 1)
                usage(argv[0]);
        } else if (a == "--list") {
            o.list = true;
        } else if (a == "--filter") {
            o.filter = next();
        } else if (a.rfind("--filter=", 0) == 0) {
            o.filter = a.substr(9);
        } else if (a == "--stats-json") {
            o.statsJsonPath = next();
        } else if (a.rfind("--stats-json=", 0) == 0) {
            o.statsJsonPath = a.substr(13);
        } else if (a == "--sweep-report") {
            o.sweepReportPath = next();
        } else if (a.rfind("--sweep-report=", 0) == 0) {
            o.sweepReportPath = a.substr(15);
        } else if (a == "--no-compile-cache") {
            o.compileCache = false;
        } else if (a == "--sanitize") {
            o.sanitizeEveryCycles = 1024;
        } else if (a.rfind("--sanitize=", 0) == 0) {
            o.sanitizeEveryCycles = static_cast<std::uint64_t>(
                std::strtoull(a.c_str() + 11, nullptr, 10));
            if (o.sanitizeEveryCycles == 0)
                usage(argv[0]);
        } else if (a.rfind("--faults=", 0) == 0) {
            o.faultIntensity = std::strtod(a.c_str() + 9, nullptr);
            if (o.faultIntensity < 0.0)
                usage(argv[0]);
        } else if (a.rfind("--fault-seed=", 0) == 0) {
            o.faultSeed = static_cast<std::uint64_t>(
                std::strtoull(a.c_str() + 13, nullptr, 10));
        } else if (a == "--fail-safe") {
            o.failSafe = true;
        } else if (a == "--retry-faulted") {
            o.retryFaulted = true;
        } else if (a.rfind("--retries=", 0) == 0) {
            o.retries = static_cast<int>(
                std::strtol(a.c_str() + 10, nullptr, 10));
            if (o.retries < 0)
                usage(argv[0]);
        } else if (a == "--journal") {
            o.journalDir = next();
        } else if (a.rfind("--journal=", 0) == 0) {
            o.journalDir = a.substr(10);
        } else if (a == "--disk-cache") {
            o.diskCacheDir = next();
        } else if (a.rfind("--disk-cache=", 0) == 0) {
            o.diskCacheDir = a.substr(13);
        } else if (a == "--no-disk-cache") {
            no_disk_cache = true;
        } else {
            usage(argv[0]);
        }
    }
    if (no_disk_cache)
        o.diskCacheDir.clear();
    return o;
}

std::string
formatStatsBundle(const SweepResult& result)
{
    // Clean sweeps keep the byte-identical /1 encoding; only a bundle
    // that actually contains error records announces /2.
    const bool any_failed = result.failedCount() > 0;
    std::string out = strCat("{\"schema\": \"procoup-stats-bundle/",
                             any_failed ? 2 : 1, "\", \"runs\": [\n");
    bool first = true;
    for (const auto& o : result.outcomes) {
        if (o.failed) {
            out += strCat(
                first ? "" : ",\n", "{\"label\": ",
                jsonQuote(o.point->label),
                ",\n\"error\": {\"kind\": ",
                jsonQuote(simErrorKindName(o.errorKind)),
                ", \"cycle\": ", o.errorCycle,
                ", \"retries\": ", o.retries,
                ", \"message\": ", jsonQuote(o.error), "}}");
        } else {
            out += strCat(first ? "" : ",\n", "{\"label\": ",
                          jsonQuote(o.point->label), ",\n\"stats\": ",
                          sched::formatStatsJson(o.result.stats,
                                                 o.point->machine),
                          "}");
        }
        first = false;
    }
    out += "\n]}\n";
    return out;
}

std::string
formatSweepReport(const ExperimentPlan& plan, const SweepResult& result,
                  const HarnessOptions& options)
{
    double point_ms = 0.0;
    for (const auto& o : result.outcomes)
        point_ms += o.wallMs;
    const std::size_t failed = result.failedCount();
    std::string s = strCat(
        "{\"schema\": \"procoup-sweep/", failed ? 2 : 1,
        "\",\n\"harness\": ",
        jsonQuote(plan.name()), ",\n\"jobs\": ", result.jobs,
        ",\n\"points\": ", result.outcomes.size(),
        ",\n\"wall_ms\": ", fixed(result.wallMs, 3),
        ",\n\"point_wall_ms_total\": ", fixed(point_ms, 3),
        ",\n\"compile_cache\": {\"enabled\": ",
        options.compileCache ? "true" : "false",
        ", \"hits\": ", result.cacheStats.hits,
        ", \"misses\": ", result.cacheStats.misses,
        ", \"hit_rate\": ", fixed(result.cacheStats.hitRate(), 4),
        "}");
    // Crash-safety blocks appear only when their flag is on, keeping
    // existing sweep reports byte-identical.
    if (!options.diskCacheDir.empty())
        s += strCat(",\n\"disk_cache\": {\"dir\": ",
                    jsonQuote(options.diskCacheDir),
                    ", \"compiles\": ", result.cacheStats.compiles,
                    ", \"hits\": ", result.cacheStats.diskHits,
                    ", \"stores\": ", result.cacheStats.diskStores,
                    ", \"corrupt\": ", result.cacheStats.diskCorrupt,
                    "}");
    if (!options.journalDir.empty())
        s += strCat(",\n\"journal\": {\"dir\": ",
                    jsonQuote(options.journalDir), ", \"replayed\": ",
                    result.replayedPoints, ", \"executed\": ",
                    result.outcomes.size() - result.replayedPoints,
                    ", \"compiles\": ", result.cacheStats.compiles,
                    "}");
    if (failed) {
        s += strCat(",\n\"failed_points\": ", failed,
                    ",\n\"failures\": [");
        bool first = true;
        for (const auto& o : result.outcomes) {
            if (!o.failed)
                continue;
            s += strCat(first ? "" : ", ", "{\"label\": ",
                        jsonQuote(o.point->label), ", \"kind\": ",
                        jsonQuote(simErrorKindName(o.errorKind)),
                        ", \"cycle\": ", o.errorCycle,
                        ", \"retries\": ", o.retries, "}");
            first = false;
        }
        s += "]";
    }
    s += "}\n";
    return s;
}

int
runHarness(const ExperimentPlan& plan, const HarnessOptions& options,
           const std::function<void(const SweepResult&)>& render)
{
    if (options.list) {
        for (const auto& p : plan.points())
            std::printf("%s\n", p.label.c_str());
        return 0;
    }

    const bool filtered = !options.filter.empty();
    // A copy either way: --sanitize/--faults tune every point's
    // simOptions in place, and outcomes point into the executed plan,
    // which must outlive the result below.
    ExperimentPlan to_run =
        filtered ? plan.filtered(options.filter) : plan;
    if (filtered && to_run.empty()) {
        std::fprintf(stderr, "--filter %s matches no sweep point\n",
                     options.filter.c_str());
        return 1;
    }
    if (options.sanitizeEveryCycles > 0 || options.faultIntensity > 0.0)
        for (auto& p : to_run.mutablePoints()) {
            if (options.sanitizeEveryCycles > 0)
                p.simOptions.sanitizeEveryCycles =
                    options.sanitizeEveryCycles;
            if (options.faultIntensity > 0.0)
                p.simOptions.faults = fault::FaultPlan::atIntensity(
                    options.faultIntensity, options.faultSeed);
        }

    RunnerOptions ropts;
    ropts.jobs = options.jobs;
    ropts.cacheEnabled = options.compileCache;
    ropts.failSafe = options.failSafe;
    ropts.retryFaulted = options.retryFaulted;
    ropts.retryPolicy.maxAttempts = options.retries + 1;
    ropts.journalDir = options.journalDir;
    ropts.diskCacheDir = options.diskCacheDir;

    SweepRunner runner(ropts);
    const SweepResult result = runner.run(to_run);

    if (filtered) {
        // Single-point/CI mode: a standard summary instead of the
        // harness's full-grid rendering (which needs every point).
        for (const auto& o : result.outcomes) {
            if (o.failed) {
                std::printf("%-48s FAILED (%s at cycle %llu)\n",
                            o.point->label.c_str(),
                            simErrorKindName(o.errorKind).c_str(),
                            static_cast<unsigned long long>(
                                o.errorCycle));
                continue;
            }
            std::printf("%-48s %10llu cycles  ops %llu%s%s\n",
                        o.point->label.c_str(),
                        static_cast<unsigned long long>(
                            o.result.stats.cycles),
                        static_cast<unsigned long long>(
                            o.result.stats.totalOps),
                        o.point->verifyBenchmark.empty()
                            ? ""
                            : "  verify OK",
                        o.compileCached ? "  [compile cached]" : "");
        }
    } else {
        render(result);
    }

    // Fail-safe failures are data (recorded in the bundle/report) but
    // still deserve eyeballs.
    for (const auto& o : result.outcomes)
        if (o.failed)
            std::fprintf(stderr, "point %s failed: %s\n",
                         o.point->label.c_str(), o.error.c_str());

    if (!options.statsJsonPath.empty())
        writeFileOrDie(options.statsJsonPath,
                       formatStatsBundle(result));
    if (!options.sweepReportPath.empty())
        writeFileOrDie(options.sweepReportPath,
                       formatSweepReport(to_run, result, options));
    return 0;
}

int
harnessMain(const ExperimentPlan& plan, int argc, char** argv,
            const std::function<void(const SweepResult&)>& render)
{
    return runHarness(plan, HarnessOptions::parse(argc, argv), render);
}

std::string
ratio(double num, double den)
{
    return fixed(den == 0.0 ? 0.0 : num / den, 2);
}

} // namespace exp
} // namespace procoup
