#include "workloads.hh"

#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/serialize.hh"
#include "procoup/exp/suites.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/lang/parser.hh"
#include "procoup/opt/passes.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace perfbench {

using namespace procoup;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Adds the time between construction and destruction to a total. */
class Stopwatch
{
  public:
    explicit Stopwatch(double& totalMs) : _total(totalMs) {}
    ~Stopwatch()
    {
        _total += secondsBetween(_start, Clock::now()) * 1000.0;
    }
    Stopwatch(const Stopwatch&) = delete;
    Stopwatch& operator=(const Stopwatch&) = delete;

  private:
    double& _total;
    Clock::time_point _start = Clock::now();
};

/** Generated programs in one fuzz-soak pass: a 200-program draw
 *  moves cycles and point time too much from one seed to the next
 *  (README.md). */
constexpr int kSoakPrograms = 400;

/** The Figure-7 modes without Ideal: the memory-bound grid. */
const core::SimMode kMemModes[] = {core::SimMode::Sts,
                                   core::SimMode::Tpe,
                                   core::SimMode::Coupled};

/** Paper Table 2 cycle ratios to Coupled (EXPERIMENTS.md). */
struct PaperRatio
{
    const char* bench;
    core::SimMode mode;
    double paper;
};

const PaperRatio kTable2Ratios[] = {
    {"Matrix", core::SimMode::Seq, 3.12},
    {"Matrix", core::SimMode::Sts, 1.85},
    {"Matrix", core::SimMode::Tpe, 0.99},
    {"Matrix", core::SimMode::Ideal, 0.55},
    {"FFT", core::SimMode::Seq, 3.06},
    {"FFT", core::SimMode::Sts, 1.63},
    {"FFT", core::SimMode::Tpe, 1.79},
    {"FFT", core::SimMode::Ideal, 0.36},
    {"LUD", core::SimMode::Seq, 2.69},
    {"LUD", core::SimMode::Sts, 1.54},
    {"LUD", core::SimMode::Tpe, 1.05},
    {"Model", core::SimMode::Seq, 2.69},
    {"Model", core::SimMode::Sts, 2.09},
    {"Model", core::SimMode::Tpe, 1.07},
};

/** Paper Figure 7 Mem2/Min dilation, in kMemModes order. */
const double kMem2Dilation[] = {5.5, 2.3, 2.0};

std::optional<double>
table2PaperErr(const exp::SweepResult& sweep)
{
    const auto machine = config::baseline();
    auto cycles = [&](const char* bench, core::SimMode mode) {
        return static_cast<double>(
            sweep
                .at(exp::ExperimentPlan::benchmarkLabel(
                    benchmarks::byName(bench), mode, machine))
                .result.stats.cycles);
    };
    double sum = 0.0;
    for (const auto& r : kTable2Ratios) {
        const double coupled = cycles(r.bench, core::SimMode::Coupled);
        const double measured = cycles(r.bench, r.mode);
        if (coupled == 0.0 || measured == 0.0)
            return std::nullopt;
        sum += std::fabs(std::log(measured / coupled / r.paper));
    }
    return sum / static_cast<double>(std::size(kTable2Ratios));
}

std::optional<double>
memLatencyPaperErr(const exp::SweepResult& sweep)
{
    // Plan order is benchmark, mode, then Min/Mem1/Mem2.
    const std::size_t nb = benchmarks::all().size();
    const std::size_t nm = std::size(kMemModes);
    double sum = 0.0;
    for (std::size_t m = 0; m < nm; ++m) {
        double dilation = 0.0;
        for (std::size_t b = 0; b < nb; ++b) {
            const std::size_t base = (b * nm + m) * 3;
            const double min = static_cast<double>(
                sweep.outcomes[base].result.stats.cycles);
            const double mem2 = static_cast<double>(
                sweep.outcomes[base + 2].result.stats.cycles);
            if (min == 0.0 || mem2 == 0.0)
                return std::nullopt;
            dilation += mem2 / min;
        }
        dilation /= static_cast<double>(nb);
        sum += std::fabs(std::log(dilation / kMem2Dilation[m]));
    }
    return sum / static_cast<double>(nm);
}

void
addRunCounts(Counts& c, const sim::RunStats& s)
{
    c["sim_cycles"] += s.cycles;
    c["sim.ops"] += s.totalOps;
    c["sim.threads_spawned"] += s.threadsSpawned;
    for (int k = 0; k < sim::numStallCauses; ++k)
        c["stall." + sim::stallCauseName(static_cast<sim::StallCause>(k))] +=
            s.stallsTotal[static_cast<std::size_t>(k)];
    c["mem.accesses"] += s.memAccesses;
    c["mem.misses"] += s.memMisses;
    c["mem.parked"] += s.memParked;
    c["mem.parked_cycles"] += s.memParkedCycles;
    c["mem.bank_delay_cycles"] += s.memBankDelayCycles;
    c["wb.writebacks"] += s.writebacks;
    c["wb.stall_cycles"] += s.writebackStallCycles;
    c["wb.remote_writes"] += s.remoteWrites;
    c["fault.injected"] += s.faults.totalEvents();
}

void
addCompileCounts(Counts& c, const sched::CompileResult& r)
{
    c["exp.compiles"] += 1;
    c["sched.ops"] += r.program.staticOperationCount();
    for (const auto& t : r.program.threads)
        c["sched.instrs"] += t.instructions.size();
}

std::uint64_t
irInstrs(const ir::Module& mod)
{
    std::uint64_t n = 0;
    for (const auto& f : mod.funcs)
        for (const auto& b : f.blocks)
            n += b.instrs.size();
    return n;
}

/** The bytes two executions of one point must agree on. */
std::string
outcomeBytes(const exp::RunOutcome& o)
{
    exp::ByteWriter w;
    w.b(o.failed);
    w.u8(static_cast<std::uint8_t>(o.errorKind));
    w.u64(o.errorCycle);
    w.str(o.error);
    exp::writeRunStats(w, o.result.stats);
    w.u64(o.result.memory.size());
    for (const auto& v : o.result.memory)
        exp::writeValue(w, v);
    return w.take();
}

std::string
compileBytes(const sched::CompileResult& r)
{
    exp::ByteWriter w;
    exp::writeCompileResult(w, r);
    return w.take();
}

std::string
failureLine(const exp::RunOutcome& o)
{
    return strCat(o.point->label, ": ",
                  o.failed ? "simulation error: " : "", o.error);
}

/** One line per failed point: a simulation error, a verify mismatch
 *  or a soak mismatch. */
std::vector<std::string>
failureLines(const exp::SweepResult& sweep,
             const std::vector<gen::SoakMismatch>& mismatches)
{
    std::vector<std::string> out;
    std::set<std::string> failed;
    for (const auto& o : sweep.outcomes)
        if ((o.failed || !o.error.empty()) &&
                failed.insert(o.point->label).second)
            out.push_back(failureLine(o));
    for (const auto& m : mismatches)
        if (failed.insert(m.label).second)
            out.push_back(strCat(m.label, ": ", m.kind, ": ", m.detail));
    return out;
}

/** Replay opt::optimize's pass order on @p mod, one span per pass
 *  call. @return rounds run (summed over functions) */
std::uint64_t
replayOptimize(ir::Module& mod, SpanRecorder& rec)
{
    std::uint64_t rounds = 0;
    for (auto& f : mod.funcs) {
        for (int round = 0; round < 16; ++round) {
            ++rounds;
            bool changed = false;
            {
                SpanRecorder::Scope s(rec, "opt.constantPropagation");
                changed |= opt::constantPropagation(f);
            }
            {
                SpanRecorder::Scope s(rec, "opt.copyPropagation");
                changed |= opt::copyPropagation(f);
            }
            {
                SpanRecorder::Scope s(
                    rec, "opt.commonSubexpressionElimination");
                changed |= opt::commonSubexpressionElimination(f);
            }
            {
                SpanRecorder::Scope s(rec, "opt.deadCodeElimination");
                changed |= opt::deadCodeElimination(f);
            }
            if (!changed)
                break;
        }
    }
    return rounds;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "table2-grid", "mem-latency", "fuzz-soak"};
    return names;
}

std::unique_ptr<Workload>
buildWorkload(const std::string& name, std::uint64_t seed)
{
    auto w = std::make_unique<Workload>();
    if (name == "table2-grid") {
        w->plan = exp::table2BaselinePlan();
    } else if (name == "mem-latency") {
        config::MachineConfig base = config::baseline();
        base.memory.seed = 1 + seed;
        const config::MachineConfig mems[] = {config::withMemMin(base),
                                              config::withMem1(base),
                                              config::withMem2(base)};
        w->plan = exp::ExperimentPlan("mem_latency");
        for (const auto& b : benchmarks::all())
            for (const auto mode : kMemModes)
                for (const auto& mem : mems)
                    w->plan.addBenchmark(mem, b, mode);
    } else if (name == "fuzz-soak") {
        gen::SoakOptions opts;
        opts.firstSeed = 1 + seed * static_cast<std::uint64_t>(
                                        kSoakPrograms);
        opts.programs = kSoakPrograms;
        opts.jobs = 1;
        w->soak = gen::buildSoakPlan(opts);
    } else {
        throw std::invalid_argument("unknown workload " + name);
    }
    return w;
}

PassResult
runPass(const std::string& name, std::uint64_t seed)
{
    PassResult r;
    const auto t0 = Clock::now();
    r.workload = buildWorkload(name, seed);
    const exp::ExperimentPlan& plan = r.workload->points();
    r.cache = std::make_unique<exp::CompileCache>();
    auto last = Clock::now();
    r.stepMs.push_back(secondsBetween(t0, last) * 1000.0);
    for (const auto& pt : plan.points()) {
        r.cache->compile(pt.source, pt.machine, pt.options);
        const auto now = Clock::now();
        r.stepMs.push_back(secondsBetween(last, now) * 1000.0);
        last = now;
    }
    const auto t1 = last;

    exp::RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = r.cache.get();
    ro.failSafe = true;
    ro.exitOnVerifyFailure = false;
    r.setupCache = r.cache->stats();
    exp::SweepRunner runner(ro);
    r.sweep = runner.run(plan);
    const auto t2 = Clock::now();

    // The runner verified every registry point; the soak's oracle is
    // the differential analysis.
    std::vector<gen::SoakMismatch> mismatches;
    if (r.workload->soak)
        mismatches = gen::analyzeSoak(*r.workload->soak, r.sweep);
    const auto t3 = Clock::now();

    r.setupS = secondsBetween(t0, t1);
    r.wallS = secondsBetween(t0, t3);
    r.attempted = r.sweep.outcomes.size();

    r.failures = failureLines(r.sweep, mismatches);

    exp::ByteWriter all;
    double pointsMs = 0.0;
    for (const auto& o : r.sweep.outcomes) {
        r.pointMs.push_back(o.wallMs);
        pointsMs += o.wallMs;
        r.simCycles += o.result.stats.cycles;
        addRunCounts(r.counts, o.result.stats);
        all.str(outcomeBytes(o));
    }
    std::set<const sched::CompileResult*> seen;
    for (const auto& pt : plan.points()) {
        const auto c = r.cache->compile(pt.source, pt.machine,
                                        pt.options);
        if (seen.insert(c.get()).second) {
            addCompileCounts(r.counts, *c);
            all.str(compileBytes(*c));
        }
    }
    r.digest = exp::fnv1a64(all.bytes());
    r.stepMs.push_back(secondsBetween(t1, t2) * 1000.0 - pointsMs);
    r.stepMs.push_back(secondsBetween(t2, t3) * 1000.0);

    if (r.failures.empty()) {
        if (name == "table2-grid")
            r.paperErr = table2PaperErr(r.sweep);
        else if (name == "mem-latency")
            r.paperErr = memLatencyPaperErr(r.sweep);
    }
    return r;
}

TracedPass
runTracedPass(const PassResult& ref)
{
    TracedPass tp;
    SpanRecorder& rec = tp.spans;
    const Workload& w = *ref.workload;
    const exp::ExperimentPlan& plan = w.points();
    double excludedMs = 0.0;
    const auto t0 = Clock::now();

    if (w.soak) {
        for (const auto& u : w.soak->units) {
            gen::GeneratedProgram g;
            {
                SpanRecorder::Scope s(rec, "gen.generate");
                g = gen::generate(u.seed, w.soak->opts.gen);
            }
            Stopwatch ex(excludedMs);
            if (g.source != u.source)
                tp.mismatches.push_back(
                    strCat("gen::generate(", u.seed,
                           ") differs from the soak plan's source"));
        }
    }

    // Compile every distinct (source, machine, options) once, layer by
    // layer, the way sched::compile does.
    std::map<std::string, sched::CompileResult> compiled;
    std::vector<const sched::CompileResult*> pointCompiled;
    for (const auto& pt : plan.points()) {
        const std::string key =
            exp::CompileCache::key(pt.source, pt.machine, pt.options);
        auto it = compiled.find(key);
        if (it == compiled.end()) {
            SpanRecorder::Scope c(rec, "compile");
            std::vector<lang::Sexpr> forms;
            {
                SpanRecorder::Scope s(rec, "lang.parse");
                forms = lang::parse(pt.source);
            }
            ir::FrontendOptions fopts;
            fopts.forkClones =
                pt.options.forkClones > 0
                    ? pt.options.forkClones
                    : static_cast<int>(
                          pt.machine.arithClusters().size());
            ir::Module mod;
            {
                SpanRecorder::Scope s(rec, "ir.buildModule");
                mod = ir::buildModule(forms, fopts);
            }
            tp.counts["ir.instrs"] += irInstrs(mod);
            if (pt.options.runOptimizer) {
                ir::Module replay;
                {
                    Stopwatch ex(excludedMs);
                    replay = mod;
                }
                {
                    SpanRecorder::Scope s(rec, "opt.optimize");
                    opt::optimize(mod);
                }
                {
                    Stopwatch ex(excludedMs);
                    SpanRecorder::Scope s(rec, "opt.replay");
                    tp.counts["opt.rounds"] += replayOptimize(replay, rec);
                    if (replay.toString() != mod.toString())
                        tp.mismatches.push_back(strCat(
                            pt.label, ": the per-pass opt replay differs "
                                      "from opt::optimize"));
                }
            }
            tp.counts["opt.instrs_after"] += irInstrs(mod);
            sched::CompileOptions schedOnly = pt.options;
            schedOnly.runOptimizer = false;
            sched::CompileResult result;
            {
                SpanRecorder::Scope s(rec, "sched.compileModule");
                result = sched::compileModule(std::move(mod), pt.machine,
                                              schedOnly);
            }
            it = compiled.emplace(key, std::move(result)).first;
        }
        pointCompiled.push_back(&it->second);
    }

    exp::SweepResult traced;
    traced.outcomes.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const exp::SweepPoint& pt = plan.points()[i];
        const int id = static_cast<int>(i);
        const sched::CompileResult& cr = *pointCompiled[i];
        exp::RunOutcome& o = traced.outcomes[i];
        o.point = &pt;
        SpanRecorder::Scope point(rec, "point", id);
        {
            SpanRecorder::Scope s(rec, "exp.CompileCache::compile", id);
            ref.cache->compile(pt.source, pt.machine, pt.options);
        }
        tp.probeUs.push_back(rec.spans().back().durUs());
        std::optional<sim::Simulator> simulator;
        try {
            {
                SpanRecorder::Scope s(rec, "sim.Simulator", id);
                simulator.emplace(pt.machine, cr.program, pt.simOptions);
            }
            SpanRecorder::Scope s(rec, "sim.run", id);
            o.result.stats = simulator->run();
        } catch (const SimError& e) {
            o.result = core::RunResult{};
            o.failed = true;
            o.errorKind = e.kind();
            o.errorCycle = e.cycle();
            o.error = e.what();
            continue;
        }
        o.result.memory.reserve(cr.program.memorySize);
        for (std::uint32_t a = 0; a < cr.program.memorySize; ++a)
            o.result.memory.push_back(simulator->memory().peek(a));
        o.result.compiled = cr;
        if (!pt.verifyBenchmark.empty()) {
            std::string why;
            bool ok = false;
            {
                SpanRecorder::Scope s(rec, "benchmarks::verify", id);
                ok = benchmarks::verify(pt.verifyBenchmark, o.result,
                                        &why);
            }
            if (!ok)
                o.error = strCat(pt.verifyBenchmark, "/",
                                 core::simModeName(pt.mode),
                                 " computed a wrong result: ", why);
        }
    }

    std::vector<gen::SoakMismatch> soakMismatches;
    if (w.soak) {
        SpanRecorder::Scope s(rec, "gen.analyzeSoak");
        soakMismatches = gen::analyzeSoak(*w.soak, traced);
    }
    tp.tracedMs = secondsBetween(t0, Clock::now()) * 1000.0 - excludedMs;

    // Exactness: the replay must reproduce the sweep engine's pass.
    std::set<const sched::CompileResult*> seen;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const exp::RunOutcome& a = ref.sweep.outcomes[i];
        const exp::RunOutcome& b = traced.outcomes[i];
        if (outcomeBytes(a) != outcomeBytes(b))
            tp.mismatches.push_back(strCat(
                a.point->label,
                ": traced RunStats/memory differ from SweepRunner's"));
        addRunCounts(tp.counts, b.result.stats);
        if (!seen.insert(pointCompiled[i]).second)
            continue;
        addCompileCounts(tp.counts, *pointCompiled[i]);
        const auto cached = ref.cache->compile(
            a.point->source, a.point->machine, a.point->options);
        if (compileBytes(*cached) != compileBytes(*pointCompiled[i]))
            tp.mismatches.push_back(strCat(
                a.point->label,
                ": traced compile differs from CompileCache's"));
    }
    if (failureLines(traced, soakMismatches) != ref.failures)
        tp.mismatches.push_back(
            "traced failures differ from the untraced pass's");
    return tp;
}

std::map<std::string, double>
layerTimes(const TracedPass& tp, const exp::ExperimentPlan& plan)
{
    static const std::pair<const char*, const char*> kLayers[] = {
        {"lang.parse", "lang.parse_ms"},
        {"ir.buildModule", "ir.build_ms"},
        {"opt.optimize", "opt.ms"},
        {"opt.constantPropagation", "opt.const_prop_ms"},
        {"opt.copyPropagation", "opt.copy_prop_ms"},
        {"opt.commonSubexpressionElimination", "opt.cse_ms"},
        {"opt.deadCodeElimination", "opt.dce_ms"},
        {"sched.compileModule", "sched.ms"},
        {"gen.generate", "gen.generate_ms"},
        {"gen.analyzeSoak", "gen.analyze_ms"},
        {"sim.Simulator", "sim.ctor_ms"},
        {"sim.run", "sim.run_ms"},
        {"benchmarks::verify", "verify.ms"},
    };
    std::map<std::string, double> out;
    for (const auto& b : benchmarks::all())
        out["sim.run_ms." + b.name] = 0.0;
    for (const auto mode : core::allSimModes())
        out["sim.run_ms." + core::simModeName(mode)] = 0.0;

    const std::map<std::string, double> self = tp.spans.selfMsByName();
    for (const auto& [span, metric] : kLayers) {
        const auto it = self.find(span);
        out[metric] = it == self.end() ? 0.0 : it->second;
    }
    for (const auto& s : tp.spans.spans()) {
        if (s.name != "sim.run")
            continue;
        const exp::SweepPoint& pt =
            plan.points()[static_cast<std::size_t>(s.point)];
        if (pt.benchmarkId >= 0)
            out["sim.run_ms." + benchmarks::byId(pt.benchmarkId).name] +=
                s.durUs() / 1000.0;
        out["sim.run_ms." + core::simModeName(pt.mode)] +=
            s.durUs() / 1000.0;
    }
    return out;
}

} // namespace perfbench
