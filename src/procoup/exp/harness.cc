#include "procoup/exp/harness.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
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
        "usage: %s [--jobs N] [--sanitize[=N]] [--faults X]\n"
        "       [--fault-seed S] [--fail-safe] [--journal DIR]\n"
        "       [--list] [--filter SUBSTRING] [--stats-json FILE]\n"
        "       [--sweep-report FILE] [--retry-faulted] [--retries N]\n"
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

/** Match "--name VALUE" or "--name=VALUE" at argv[i]: on a match,
 *  store VALUE in @p value and step @p i past it. */
bool
flagValue(const char* name, int argc, char** argv, int& i,
          std::string* value, void (*usage)(const char*))
{
    const std::string a = argv[i];
    const std::size_t n = std::strlen(name);
    if (a.compare(0, n, name) != 0)
        return false;
    if (a.size() == n) {
        if (i + 1 >= argc)
            usage(argv[0]);
        *value = argv[++i];
        return true;
    }
    if (a[n] != '=')
        return false;
    *value = a.substr(n + 1);
    return true;
}

} // namespace

bool
HarnessOptions::parseSweepFlag(int argc, char** argv, int& i,
                               void (*usage)(const char*))
{
    const std::string a = argv[i];
    std::string v;
    if (flagValue("--jobs", argc, argv, i, &v, usage)) {
        if (!parseNumber(v, &jobs) || jobs < 1)
            usage(argv[0]);
    } else if (a == "--sanitize") {
        sanitizeEveryCycles = 1024;
    } else if (a.rfind("--sanitize=", 0) == 0) {
        if (!parseNumber(a.substr(11), &sanitizeEveryCycles) ||
            sanitizeEveryCycles == 0)
            usage(argv[0]);
    } else if (flagValue("--faults", argc, argv, i, &v, usage)) {
        if (!parseNumber(v, &faultIntensity) || faultIntensity < 0.0)
            usage(argv[0]);
    } else if (flagValue("--fault-seed", argc, argv, i, &v, usage)) {
        if (!parseNumber(v, &faultSeed))
            usage(argv[0]);
    } else if (a == "--fail-safe") {
        failSafe = true;
    } else if (flagValue("--journal", argc, argv, i, &v, usage)) {
        journalDir = v;
    } else {
        return false;
    }
    return true;
}

HarnessOptions
HarnessOptions::parse(int argc, char** argv)
{
    HarnessOptions o;
    for (int i = 1; i < argc; ++i) {
        if (o.parseSweepFlag(argc, argv, i, usage))
            continue;
        const std::string a = argv[i];
        std::string v;
        if (a == "--list") {
            o.list = true;
        } else if (flagValue("--filter", argc, argv, i, &v, usage)) {
            o.filter = v;
        } else if (flagValue("--stats-json", argc, argv, i, &v, usage)) {
            o.statsJsonPath = v;
        } else if (flagValue("--sweep-report", argc, argv, i, &v,
                             usage)) {
            o.sweepReportPath = v;
        } else if (a == "--retry-faulted") {
            o.retryFaulted = true;
        } else if (flagValue("--retries", argc, argv, i, &v, usage)) {
            if (!parseNumber(v, &o.retries) || o.retries < 0)
                usage(argv[0]);
        } else {
            usage(argv[0]);
        }
    }
    return o;
}

void
HarnessOptions::applyTo(ExperimentPlan& plan) const
{
    for (auto& p : plan.mutablePoints()) {
        if (sanitizeEveryCycles > 0)
            p.simOptions.sanitizeEveryCycles = sanitizeEveryCycles;
        if (faultIntensity > 0.0)
            p.simOptions.faults =
                fault::FaultPlan::atIntensity(faultIntensity, faultSeed);
    }
}

RunnerOptions
HarnessOptions::runnerOptions() const
{
    RunnerOptions r;
    r.jobs = jobs;
    r.failSafe = failSafe;
    r.retryFaulted = retryFaulted;
    r.retries = retries;
    r.journalDir = journalDir;
    return r;
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
        ",\n\"compile_cache\": {\"hits\": ", result.cacheStats.hits,
        ", \"misses\": ", result.cacheStats.misses,
        ", \"hit_rate\": ", fixed(result.cacheStats.hitRate(), 4),
        "}");
    // The journal block appears only under --journal, keeping other
    // sweep reports byte-identical.
    if (!options.journalDir.empty())
        s += strCat(",\n\"journal\": {\"dir\": ",
                    jsonQuote(options.journalDir), ", \"replayed\": ",
                    result.replayedPoints, ", \"executed\": ",
                    result.outcomes.size() - result.replayedPoints,
                    ", \"compiles\": ", result.cacheStats.misses,
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
    options.applyTo(to_run);

    SweepRunner runner(options.runnerOptions());
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
