/**
 * @file
 * perfbench: times the paper's evaluation end to end and layer by
 * layer. See README.md beside this file for the workloads, the
 * metrics and how to read the host trace.
 *
 *   perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]
 *             [--trace-out FILE] [--revision TEXT]
 *
 * --trace 0 repeats cold untraced passes for S seconds (at least two)
 * and prints the end-to-end metrics. --trace 1 alternates an untraced
 * pass with a traced replay of it and prints the per-layer metrics.
 * run.py passes BENCHMARK.json's run_seconds as S. The last line of
 * stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * The line before it, "perfbench-record {...}", records the seed,
 * the host, the build and the exact counters of the run.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "procoup/sim/stats.hh"

#include "workloads.hh"

using namespace perfbench;

namespace {

#if !defined(NDEBUG)
constexpr const char* kBuildRefusal = "assertions are enabled (no NDEBUG)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kBuildRefusal = "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr const char* kBuildRefusal = "built with a sanitizer";
#else
constexpr const char* kBuildRefusal = nullptr;
#endif
#else
constexpr const char* kBuildRefusal = nullptr;
#endif

/** Fewer untraced points than this in a run leave fewer than ten
 *  beyond the p90 of their pooled times. */
constexpr std::size_t kMinPoints = 110;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
    std::string revision = "unknown";
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seconds S [--seed N] [--trace 0|1] "
                 "[--trace-out FILE] [--revision TEXT]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--trace-out")
                a.traceOut = v;
            else if (flag == "--revision")
                a.revision = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    const auto& names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0.0))
        usage("--seconds must be given and positive");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile @p q of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string
num(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

int
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** A metric line of the result object. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything a run reports besides its metrics. */
struct RunLog
{
    std::size_t passes = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few, for the record
    std::vector<std::string> violations;  ///< exactness guard
    Counts counts;
    std::uint64_t digest = 0;
    std::optional<double> paperErr;

    /** Fold one untraced pass in; counts and digest must repeat. */
    void addPass(const PassResult& p)
    {
        ++passes;
        attempted += p.attempted;
        failed += p.failures.size();
        for (const auto& f : p.failures)
            if (failures.size() < 8)
                failures.push_back(f);
        if (passes == 1) {
            counts = p.counts;
            digest = p.digest;
            paperErr = p.paperErr;
            return;
        }
        if (p.digest != digest)
            violations.push_back(
                "RunStats, memory or programs differ between passes");
        for (const auto& [k, v] : p.counts)
            if (counts[k] != v)
                violations.push_back(k + " differs between passes");
        if (p.paperErr != paperErr)
            violations.push_back("paper_err differs between passes");
    }
};

/** Comma-joined JSON members or elements. */
std::string
joinJson(const std::vector<std::string>& items)
{
    std::string out;
    for (const auto& item : items) {
        if (!out.empty())
            out += ',';
        out += item;
    }
    return out;
}

void
printResult(const Args& args, const RunLog& log,
            const std::vector<Metric>& metrics)
{
    std::vector<std::string> counts, failures, violations, body;
    for (const auto& [k, v] : log.counts)
        counts.push_back(jsonString(k) + ":" + std::to_string(v));
    for (const auto& f : log.failures)
        failures.push_back(jsonString(f));
    for (const auto& v : log.violations)
        violations.push_back(jsonString(v));
    for (const auto& m : metrics)
        body.push_back(jsonString(m.name) + ": {\"value\": " +
                       num(m.value) + ", \"unit\": " +
                       jsonString(m.unit) + "}");

    std::printf(
        "perfbench-record {\"workload\":%s,\"seed\":%llu,"
        "\"trace\":%d,\"seconds\":%s,\"passes\":%zu,"
        "\"host\":{\"cpus\":%d,\"cpu_model\":%s,\"compiler\":%s,"
        "\"build_type\":%s,\"revision\":%s},\"paper_err\":%s,"
        "\"digest\":\"%016llx\",\"counts\":{%s},\"failures\":[%s],"
        "\"violations\":[%s]}\n",
        jsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
        num(args.seconds).c_str(), log.passes,
        cpusAvailable(), jsonString(cpuModel()).c_str(),
        jsonString(PERFBENCH_COMPILER).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(args.revision).c_str(),
        log.paperErr ? num(*log.paperErr).c_str() : "null",
        static_cast<unsigned long long>(log.digest),
        joinJson(counts).c_str(), joinJson(failures).c_str(),
        joinJson(violations).c_str());

    const bool correct = log.failed == 0 && log.violations.empty();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", log.attempted, log.failed,
                joinJson(body).c_str());
    std::fflush(stdout);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Is there time for another pass of about @p passS seconds? A pass
 *  starts while at least half of it fits before the deadline, so a run
 *  ends within half a pass of --seconds. */
bool
timeLeft(std::chrono::steady_clock::time_point start, double seconds,
         double passS)
{
    return secondsSince(start) + 0.5 * passS < seconds;
}

/** Lower each of @p fastest to the same step's time in @p pass; the
 *  first pass fills it. Steps repeat in the same order every pass. */
void
keepFastest(std::vector<double>& fastest, const std::vector<double>& pass)
{
    if (fastest.empty())
        fastest = pass;
    for (std::size_t i = 0; i < fastest.size(); ++i)
        fastest[i] = std::min(fastest[i], pass.at(i));
}

/** Cold untraced passes: the end-to-end metrics.
 *
 *  wall_s and sim_mcycles_per_s time each step of a pass (a compile
 *  call, a point, ...) at its fastest in any pass of the run. The
 *  shared host flips between a fast and a slow state every few
 *  seconds, and a pass spans several flips, so a per-pass median moves
 *  with the share of slow time in a run; noise only adds time, and a
 *  step's fastest repeat does not move with it (README.md). setup_s
 *  stays the median over the passes' set-ups. */
std::vector<Metric>
runUntraced(const Args& args, RunLog& log)
{
    std::vector<double> setup, fastestStepMs, fastestPointMs;
    double lastPassS = 0.0;
    const auto start = std::chrono::steady_clock::now();
    while (log.passes < 2 || timeLeft(start, args.seconds, lastPassS)) {
        const auto passStart = std::chrono::steady_clock::now();
        const PassResult p = runPass(args.workload, args.seed);
        log.addPass(p);
        setup.push_back(p.setupS);
        keepFastest(fastestStepMs, p.stepMs);
        keepFastest(fastestPointMs, p.pointMs);
        lastPassS = secondsSince(passStart);
    }
    const double sweepMs = std::accumulate(fastestPointMs.begin(),
                                           fastestPointMs.end(), 0.0);
    const double wallMs = std::accumulate(fastestStepMs.begin(),
                                          fastestStepMs.end(), sweepMs);
    const double simCycles = static_cast<double>(log.counts["sim_cycles"]);
    const double attempted = static_cast<double>(log.attempted);
    return {
        {"setup_s", median(setup), "s"},
        {"wall_s", wallMs / 1e3, "s"},
        {"sim_mcycles_per_s", simCycles / sweepMs / 1e3, "Mcycles/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"pass_ratio", (attempted - static_cast<double>(log.failed)) /
                           attempted,
         "ratio"},
        {"sim_cycles", simCycles, "cycles"},
    };
}

/** The exact counters among the per-layer metrics, with units. */
std::vector<std::pair<std::string, std::string>>
countMetrics()
{
    std::vector<std::pair<std::string, std::string>> m = {
        {"ir.instrs", "instrs"},      {"opt.rounds", "rounds"},
        {"opt.instrs_after", "instrs"}, {"sched.ops", "ops"},
        {"sched.instrs", "instrs"},   {"exp.compiles", "compiles"},
        {"sim.ops", "ops"},           {"sim.threads_spawned", "threads"},
    };
    for (int k = 0; k < procoup::sim::numStallCauses; ++k)
        m.push_back({"stall." + procoup::sim::stallCauseName(
                                    static_cast<procoup::sim::StallCause>(k)),
                     "fu-cycles"});
    for (const char* k : {"mem.accesses", "mem.misses", "mem.parked",
                          "wb.writebacks", "wb.remote_writes"})
        m.push_back({k, "count"});
    for (const char* k : {"mem.parked_cycles", "mem.bank_delay_cycles",
                          "wb.stall_cycles"})
        m.push_back({k, "cycles"});
    m.push_back({"fault.injected", "events"});
    return m;
}

/** Untraced pass + traced replay pairs: the per-layer metrics. */
std::vector<Metric>
runTraced(const Args& args, RunLog& log)
{
    std::map<std::string, std::vector<double>> layers;
    std::vector<double> overhead, nsPerCycle, probeUs, pointMs;
    double hitRatio = 0.0;
    SpanRecorder lastSpans;
    Counts traced;
    double lastPassS = 0.0;
    const auto start = std::chrono::steady_clock::now();
    while (log.passes < 2 || pointMs.size() < kMinPoints ||
           timeLeft(start, args.seconds, lastPassS)) {
        const auto passStart = std::chrono::steady_clock::now();
        const PassResult p = runPass(args.workload, args.seed);
        log.addPass(p);
        TracedPass tp = runTracedPass(p);
        log.violations.insert(log.violations.end(),
                              tp.mismatches.begin(), tp.mismatches.end());
        for (const auto& [k, v] : tp.counts) {
            const auto it = p.counts.find(k);
            if (it != p.counts.end() && it->second != v)
                log.violations.push_back(
                    k + " differs between the traced and untraced pass");
        }
        if (log.passes == 1)
            traced = tp.counts;
        else if (tp.counts != traced)
            log.violations.push_back(
                "traced counts differ between passes");

        const auto times = layerTimes(tp, p.workload->points());
        for (const auto& [k, v] : times)
            layers[k].push_back(v);
        overhead.push_back(100.0 * (tp.tracedMs - p.wallS * 1000.0) /
                           (p.wallS * 1000.0));
        if (p.simCycles > 0)
            nsPerCycle.push_back(times.at("sim.run_ms") * 1e6 /
                                 static_cast<double>(p.simCycles));
        probeUs.insert(probeUs.end(), tp.probeUs.begin(),
                       tp.probeUs.end());
        pointMs.insert(pointMs.end(), p.pointMs.begin(), p.pointMs.end());
        hitRatio = p.setupCache.hitRate();
        lastSpans = std::move(tp.spans);
        lastPassS = secondsSince(passStart);
    }
    log.counts.insert(traced.begin(), traced.end());
    if (!args.traceOut.empty()) {
        std::ofstream out(args.traceOut);
        out << lastSpans.chromeTraceJson();
        if (!out)
            throw std::runtime_error("cannot write " + args.traceOut);
    }

    std::vector<Metric> m;
    std::printf("self time per layer (median ms per pass):\n");
    for (const auto& [k, v] : layers) {
        m.push_back({k, median(v), "ms"});
        std::printf("  %-28s %12.3f\n", k.c_str(), median(v));
    }
    for (const auto& [k, unit] : countMetrics()) {
        const auto it = traced.find(k);
        m.push_back({k,
                     it == traced.end() ? 0.0
                                        : static_cast<double>(it->second),
                     unit});
    }
    m.push_back({"point_ms_p50", quantile(pointMs, 0.5), "ms"});
    m.push_back({"point_ms_p90", quantile(pointMs, 0.9), "ms"});
    m.push_back({"exp.cache_hit_ratio", hitRatio, "ratio"});
    m.push_back({"exp.cache_probe_us", median(probeUs), "us"});
    m.push_back({"sim.ns_per_cycle", median(nsPerCycle), "ns"});
    m.push_back({"trace.overhead_pct", median(overhead), "%"});
    return m;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    if (kBuildRefusal != nullptr) {
        std::fprintf(stderr,
                     "perfbench: refusing to time this build: %s; "
                     "build with CMAKE_BUILD_TYPE=Release\n",
                     kBuildRefusal);
        return 2;
    }
    try {
        RunLog log;
        const std::vector<Metric> metrics = args.trace
            ? runTraced(args, log)
            : runUntraced(args, log);
        for (const auto& v : log.violations)
            std::fprintf(stderr, "perfbench: EXACTNESS VIOLATION: %s\n",
                         v.c_str());
        for (const auto& f : log.failures)
            std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
        printResult(args, log, metrics);
        return log.violations.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
