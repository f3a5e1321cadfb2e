/** @file Determinism and differential properties of the seeded
 *  fault-injection layer (src/procoup/fault/): the same plan and seed
 *  must reproduce bit-identical RunStats, different seeds must draw
 *  different perturbation schedules, the sanitizer must be purely
 *  observational, and the optimized simulator must stay bit-identical
 *  to the slow reference simulator under a shared fault plan. */

#include <gtest/gtest.h>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/fault/fault.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/error.hh"
#include "slow_reference_sim.hh"

namespace procoup {
namespace {

isa::Program
compiledMatrix(const config::MachineConfig& machine)
{
    core::CoupledNode node(machine);
    return node
        .compile(benchmarks::byName("Matrix").forMode(
                     core::SimMode::Coupled),
                 core::SimMode::Coupled)
        .program;
}

sim::RunStats
runWith(const config::MachineConfig& machine, const isa::Program& prog,
        const sim::SimOptions& opts)
{
    sim::Simulator s(machine, prog, opts);
    s.run();
    return s.stats();
}

TEST(FaultInjection, DisabledPlanIsZeroCost)
{
    const auto machine = config::withMem1(config::baseline());
    const auto prog = compiledMatrix(machine);

    const sim::RunStats clean = runWith(machine, prog, {});
    sim::SimOptions off;
    off.faults = fault::FaultPlan::atIntensity(0.0);
    const sim::RunStats with_plan = runWith(machine, prog, off);

    EXPECT_FALSE(clean.faultsEnabled);
    EXPECT_TRUE(clean == with_plan);
}

TEST(FaultInjection, SameSeedIsBitIdentical)
{
    const auto machine = config::withMem1(config::baseline());
    const auto prog = compiledMatrix(machine);

    sim::SimOptions opts;
    opts.faults = fault::FaultPlan::atIntensity(1.0, 42);
    const sim::RunStats a = runWith(machine, prog, opts);
    const sim::RunStats b = runWith(machine, prog, opts);

    EXPECT_TRUE(a.faultsEnabled);
    EXPECT_GT(a.faults.totalEvents(), 0u);
    EXPECT_TRUE(a == b);
}

TEST(FaultInjection, DifferentSeedsDrawDifferentSchedules)
{
    const auto machine = config::withMem1(config::baseline());
    const auto prog = compiledMatrix(machine);

    sim::SimOptions opts;
    opts.faults = fault::FaultPlan::atIntensity(1.0, 1);
    const sim::RunStats a = runWith(machine, prog, opts);
    opts.faults = opts.faults.reseeded(2);
    const sim::RunStats b = runWith(machine, prog, opts);

    EXPECT_GT(a.faults.totalEvents(), 0u);
    EXPECT_GT(b.faults.totalEvents(), 0u);
    EXPECT_FALSE(a.faults == b.faults);
}

TEST(FaultInjection, FaultsPerturbTimingNotResults)
{
    const auto machine = config::withMem1(config::baseline());
    core::CoupledNode node(machine);
    const auto prog = compiledMatrix(machine);

    sim::SimOptions opts;
    opts.faults = fault::FaultPlan::atIntensity(1.0, 7);
    const core::RunResult faulted = node.run(prog, opts);
    const core::RunResult clean = node.run(prog);

    EXPECT_GT(faulted.stats.cycles, clean.stats.cycles);
    std::string why;
    EXPECT_TRUE(benchmarks::verify("Matrix", faulted, &why)) << why;
}

TEST(FaultInjection, SanitizerIsObservational)
{
    const auto machine = config::withMem1(config::baseline());
    const auto prog = compiledMatrix(machine);

    sim::SimOptions opts;
    opts.faults = fault::FaultPlan::atIntensity(1.0, 42);
    const sim::RunStats plain = runWith(machine, prog, opts);

    opts.sanitizeEveryCycles = 64;
    const sim::RunStats sanitized = runWith(machine, prog, opts);

    EXPECT_TRUE(plain == sanitized);
}

TEST(FaultInjection, SanitizerPassesCleanRunsOnEveryMode)
{
    const auto machine = config::withMem2(config::baseline());
    for (auto mode : core::allSimModes()) {
        const auto& bench = benchmarks::byName("LUD");
        core::CoupledNode node(machine);
        if (mode == core::SimMode::Ideal && !bench.hasIdeal())
            continue;
        const auto prog =
            node.compile(bench.forMode(mode), mode).program;
        sim::SimOptions opts;
        opts.sanitizeEveryCycles = 64;
        EXPECT_NO_THROW(runWith(machine, prog, opts))
            << core::simModeName(mode);
    }
}

TEST(FaultInjection, OptimizedMatchesReferenceUnderFaults)
{
    const auto machine = config::withMem1(config::baseline());
    const auto prog = compiledMatrix(machine);

    sim::SimOptions opts;
    opts.faults = fault::FaultPlan::atIntensity(1.0, 42);

    sim::Simulator fast(machine, prog, opts);
    fast.run();
    simtest::SlowReferenceSimulator ref(machine, prog, opts);
    ref.run();

    const sim::RunStats fs = fast.stats();
    const sim::RunStats rs = ref.stats();
    EXPECT_TRUE(fs == rs)
        << "cycles " << fs.cycles << " vs " << rs.cycles
        << ", fault events " << fs.faults.totalEvents() << " vs "
        << rs.faults.totalEvents();

    ASSERT_EQ(fast.memory().size(), ref.memory().size());
    for (std::uint32_t a = 0; a < fast.memory().size(); ++a)
        ASSERT_TRUE(fast.memory().peek(a) == ref.memory().peek(a))
            << "memory diverged at " << a;
}

/** The sanitizer's index checks (active-writeback list, per-thread
 *  outstanding-load index) hold throughout a thread-heavy run whose
 *  memory references are delayed, reordered and parked by faults, on
 *  the Shared-Bus interconnect so writebacks queue across cycles. */
TEST(FaultInjection, SanitizerPassesLudCoupledUnderFaults)
{
    auto machine = config::withMem1(config::baseline());
    machine.interconnect = config::InterconnectScheme::SharedBus;
    const auto& bench = benchmarks::byName("LUD");
    core::CoupledNode node(machine);
    const auto prog = node.compile(bench.forMode(core::SimMode::Coupled),
                                   core::SimMode::Coupled)
                          .program;

    sim::SimOptions opts;
    opts.faults = fault::FaultPlan::atIntensity(1.0, 42);
    const sim::RunStats plain = runWith(machine, prog, opts);
    opts.sanitizeEveryCycles = 64;
    sim::RunStats sanitized;
    EXPECT_NO_THROW(sanitized = runWith(machine, prog, opts));
    EXPECT_GT(sanitized.faults.totalEvents(), 0u);
    EXPECT_GT(sanitized.threadsSpawned, 1000u);
    EXPECT_GT(sanitized.writebackStallCycles, 0u);
    EXPECT_TRUE(plain == sanitized);
}

TEST(FaultInjection, CycleCapThrowsStructuredError)
{
    const auto machine = config::withMem1(config::baseline());
    const auto prog = compiledMatrix(machine);

    sim::SimOptions opts;
    opts.limits.maxCycles = 40;
    sim::Simulator s(machine, prog, opts);
    try {
        s.run();
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimErrorKind::CycleLimit);
        EXPECT_EQ(e.cycle(), 40u);
        EXPECT_NE(std::string(e.what()).find("cycle budget"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace procoup
