/**
 * @file
 * pcsim — command-line driver for the processor-coupling toolchain.
 *
 * Usage:
 *   pcsim [options] program.pcl
 *   pcsim [options] --benchmark Matrix|FFT|LUD|Model
 *
 * Options:
 *   --mode seq|sts|ideal|tpe|coupled   simulation mode (default coupled)
 *   --machine FILE                     s-expression machine description
 *   --interconnect full|tri-port|dual-port|single-port|shared-bus
 *   --mem min|mem1|mem2                memory model preset
 *   --dump-asm                         print the compiled assembly
 *   --dump-ir                          print the optimized IR
 *   --dump-schedule                    print Figure-1-style schedules
 *   --diag                             compiler diagnostics summary
 *   --trace                            cycle-by-cycle event trace
 *   --max-trace N                      stop tracing after N events
 *   --trace-stalls                     include per-FU stall-cause events
 *   --trace-out FILE                   write Chrome trace-event JSON
 *   --stats-json FILE                  write machine-readable run stats
 *                                      ("-" for stdout), including the
 *                                      stall-cause attribution
 *   --verify                           (with --benchmark) check results
 *   --sym NAME                         print a data symbol after the run
 *   --cycle-cap N                      abort the run (SimError) after
 *                                      N cycles
 *   --deadline-ms T                    abort the run after T ms of
 *                                      simulation wall-clock
 *
 * The flags shared with the bench/ harnesses, parsed by
 * exp::HarnessOptions::parseSweepFlag (see exp/harness.hh); each
 * value may follow as the next argument or after '=':
 *   --jobs N                           accepted for CLI uniformity (a
 *                                      single program is one point)
 *   --sanitize[=N]                     re-validate simulator invariants
 *                                      every N cycles (default 1024)
 *   --faults X                         attach a deterministic fault
 *                                      plan of intensity X (stats-json
 *                                      switches to procoup-stats/2
 *                                      with a "faults" block)
 *   --fault-seed S                     seed of the fault RNG stream
 *   --fail-safe                        a simulation failure becomes a
 *                                      structured error record (and a
 *                                      "procoup-stats/2" error object
 *                                      in --stats-json) instead of a
 *                                      nonzero exit
 *   --journal DIR                      write-ahead results journal: a
 *                                      completed run is recorded in
 *                                      DIR and replayed bit-identically
 *                                      on a rerun (see exp/journal.hh)
 *
 * The run itself goes through exp::SweepRunner as a one-point
 * ExperimentPlan sharing a compile cache with the dump path, exactly
 * like the bench/ harness grids, in this process.
 *
 * Exit status: 0 on success, 1 on compile/simulation errors or a
 * failed verification.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/parse.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/harness.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/isa/asmtext.hh"
#include "procoup/opt/passes.hh"
#include "procoup/sched/report.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace {

using namespace procoup;

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] program.pcl\n"
                 "       %s [options] --benchmark NAME\n"
                 "see the file header of tools/pcsim.cc for options\n",
                 argv0, argv0);
    std::exit(1);
}

core::SimMode
parseMode(const std::string& s)
{
    if (s == "seq")
        return core::SimMode::Seq;
    if (s == "sts")
        return core::SimMode::Sts;
    if (s == "ideal")
        return core::SimMode::Ideal;
    if (s == "tpe")
        return core::SimMode::Tpe;
    if (s == "coupled")
        return core::SimMode::Coupled;
    throw CompileError(strCat("unknown mode '", s, "'"));
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw CompileError(strCat("cannot open ", path));
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct Options
{
    core::SimMode mode = core::SimMode::Coupled;
    config::MachineConfig machine = config::baseline();
    std::string source_file;
    std::string benchmark;
    bool dump_asm = false;
    bool dump_ir = false;
    bool dump_schedule = false;
    bool diag = false;
    bool do_trace = false;
    long max_trace = 2000;
    bool trace_stalls = false;
    std::string trace_out;
    std::string stats_json;
    bool verify = false;
    std::vector<std::string> symbols;
    std::uint64_t cycle_cap = 0;
    double deadline_ms = 0.0;

    /** The shared flags; pcsim reads none of the harness-only
     *  fields. */
    exp::HarnessOptions sweep;
};

Options
parseArgs(int argc, char** argv)
{
    Options o;
    o.sweep.jobs = 1;
    for (int i = 1; i < argc; ++i) {
        if (o.sweep.parseSweepFlag(argc, argv, i, usage))
            continue;
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(argv[0]);
            return argv[i];
        };
        if (a == "--mode") {
            o.mode = parseMode(next());
        } else if (a == "--machine") {
            o.machine = config::parseMachine(readFile(next()));
        } else if (a == "--interconnect") {
            const std::string s = next();
            o.machine = config::withInterconnect(
                o.machine,
                config::parseMachine(
                    strCat("(machine (cluster (iu) (mem)) (cluster "
                           "(br)) (interconnect ", s, "))"))
                    .interconnect);
        } else if (a == "--mem") {
            const std::string s = next();
            if (s == "min")
                o.machine = config::withMemMin(o.machine);
            else if (s == "mem1")
                o.machine = config::withMem1(o.machine);
            else if (s == "mem2")
                o.machine = config::withMem2(o.machine);
            else
                usage(argv[0]);
        } else if (a == "--benchmark") {
            o.benchmark = next();
        } else if (a == "--dump-asm") {
            o.dump_asm = true;
        } else if (a == "--dump-ir") {
            o.dump_ir = true;
        } else if (a == "--dump-schedule") {
            o.dump_schedule = true;
        } else if (a == "--diag") {
            o.diag = true;
        } else if (a == "--trace") {
            o.do_trace = true;
        } else if (a == "--max-trace") {
            if (!parseNumber(next(), &o.max_trace))
                usage(argv[0]);
        } else if (a == "--trace-stalls") {
            o.trace_stalls = true;
        } else if (a == "--trace-out") {
            o.trace_out = next();
        } else if (a == "--stats-json") {
            o.stats_json = next();
        } else if (a == "--verify") {
            o.verify = true;
        } else if (a == "--sym") {
            o.symbols.push_back(next());
        } else if (a == "--cycle-cap") {
            if (!parseNumber(next(), &o.cycle_cap) || o.cycle_cap == 0)
                usage(argv[0]);
        } else if (a == "--deadline-ms") {
            if (!parseNumber(next(), &o.deadline_ms) ||
                o.deadline_ms <= 0.0)
                usage(argv[0]);
        } else if (!a.empty() && a[0] == '-') {
            usage(argv[0]);
        } else {
            o.source_file = a;
        }
    }
    if (o.source_file.empty() == o.benchmark.empty())
        usage(argv[0]);  // exactly one input
    return o;
}

} // namespace

int
main(int argc, char** argv)
try {
    const Options o = parseArgs(argc, argv);

    const std::string source =
        !o.benchmark.empty()
            ? benchmarks::byName(o.benchmark).forMode(o.mode)
            : readFile(o.source_file);

    if (o.dump_ir) {
        ir::FrontendOptions fopts;
        fopts.forkClones =
            static_cast<int>(o.machine.arithClusters().size());
        ir::Module mod = ir::buildModule(source, fopts);
        opt::optimize(mod);
        std::printf("%s\n", mod.toString().c_str());
    }

    exp::CompileCache cache;
    // Compile once for the dump output; the runner's own compile
    // of the same point is then a cache hit, never a second
    // compilation.
    const auto compiled =
        cache.compile(source, o.machine, core::optionsFor(o.mode));

    if (o.dump_asm)
        std::printf("%s\n",
                    isa::printAssembly(compiled->program).c_str());
    if (o.dump_schedule)
        for (const auto& t : compiled->program.threads)
            std::printf(
                "%s\n",
                sched::formatSchedule(t, o.machine).c_str());
    if (o.diag)
        std::printf("%s\n",
                    sched::formatDiagnostics(*compiled).c_str());

    exp::ExperimentPlan plan("pcsim");
    exp::SweepPoint& point = plan.addSource(
        !o.benchmark.empty()
            ? exp::ExperimentPlan::benchmarkLabel(
                  benchmarks::byName(o.benchmark), o.mode, o.machine)
            : strCat(o.source_file, "/", core::simModeName(o.mode), "@",
                     o.machine.name),
        o.machine, source, o.mode);

    o.sweep.applyTo(plan);
    point.simOptions.limits.maxCycles = o.cycle_cap;
    point.simOptions.limits.wallClockDeadlineMs = o.deadline_ms;

    exp::RunnerOptions ropts = o.sweep.runnerOptions();
    ropts.cache = &cache;

    long traced = 0;
    std::vector<sim::TraceEvent> collected;
    if (o.do_trace || !o.trace_out.empty()) {
        point.tracer = [&](const sim::TraceEvent& e) {
            if (o.do_trace && traced++ < o.max_trace)
                std::printf("%s\n", e.toString().c_str());
            if (!o.trace_out.empty())
                collected.push_back(e);
        };
        point.traceStalls = o.trace_stalls;
    }

    exp::SweepRunner runner(ropts);
    const exp::SweepResult sweep = runner.run(plan);
    const exp::RunOutcome& outcome = sweep.outcomes.front();

    if (outcome.failed) {
        // Fail-safe: the failure is a structured record, not an abort.
        if (!o.stats_json.empty()) {
            const std::string json = strCat(
                "{\n  \"schema\": \"procoup-stats/2\",\n"
                "  \"error\": {\"kind\": ",
                jsonQuote(simErrorKindName(outcome.errorKind)),
                ", \"cycle\": ", outcome.errorCycle,
                ", \"message\": ", jsonQuote(outcome.error), "}\n}\n");
            if (o.stats_json == "-") {
                std::fputs(json.c_str(), stdout);
            } else {
                std::ofstream out(o.stats_json);
                if (!out)
                    throw CompileError(
                        strCat("cannot write ", o.stats_json));
                out << json;
            }
        }
        std::printf("simulation FAILED (%s at cycle %llu)\n",
                    simErrorKindName(outcome.errorKind).c_str(),
                    static_cast<unsigned long long>(
                        outcome.errorCycle));
        std::fprintf(stderr, "error: %s\n", outcome.error.c_str());
        return 0;
    }

    const core::RunResult& rr = outcome.result;
    const sim::RunStats& stats = rr.stats;

    if (o.do_trace && traced > o.max_trace)
        std::printf("... %ld further events suppressed\n",
                    traced - o.max_trace);
    if (!o.trace_out.empty()) {
        std::ofstream out(o.trace_out);
        if (!out)
            throw CompileError(strCat("cannot write ", o.trace_out));
        out << sim::chromeTraceJson(collected);
    }
    if (!o.stats_json.empty()) {
        const std::string json =
            sched::formatStatsJson(stats, o.machine);
        if (o.stats_json == "-") {
            std::fputs(json.c_str(), stdout);
        } else {
            std::ofstream out(o.stats_json);
            if (!out)
                throw CompileError(
                    strCat("cannot write ", o.stats_json));
            out << json;
        }
    }

    std::printf("%s", stats.summary().c_str());
    std::printf("peak registers/cluster: %u\n",
                rr.compiled.peakRegistersPerCluster());

    for (const auto& name : o.symbols) {
        const auto& sym = rr.compiled.program.symbol(name);
        std::printf("%s:", name.c_str());
        for (std::uint32_t k = 0; k < sym.size && k < 16; ++k)
            std::printf(" %s",
                        rr.memory.at(sym.base + k).toString().c_str());
        std::printf(sym.size > 16 ? " ...\n" : "\n");
    }

    if (o.verify && !o.benchmark.empty()) {
        std::string why;
        if (!benchmarks::verify(o.benchmark, rr, &why)) {
            std::fprintf(stderr, "VERIFY FAILED: %s\n", why.c_str());
            return 1;
        }
        std::printf("verify: OK\n");
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
