/** @file Tests for simulator extensions: round-robin arbitration,
 *  tracing, bank conflicts, and active-set limits under load. */

#include <gtest/gtest.h>

#include <map>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/support/error.hh"
#include "procoup/config/parse.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/isa/builder.hh"
#include "procoup/sim/simulator.hh"
#include "test_util.hh"

namespace procoup {
namespace {

using namespace isa;
using sim::Simulator;
using testutil::fuBR0;
using testutil::fuIU;
using testutil::rr;

/** Two identical children compete for one integer unit. */
isa::Program
contendingProgram(std::size_t num_clusters, int chain)
{
    ProgramBuilder pb(num_clusters);
    auto child = pb.thread("child", {2});
    child.params({rr(0, 0)});
    child.rowOp(fuIU(0), op::mov(rr(0, 1), op::imm(0)));
    for (int i = 0; i < chain; ++i)
        child.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 1),
                                     op::reg(rr(0, 1)), op::imm(1)));
    child.rowOp(fuBR0(), op::ethr());

    auto main = pb.thread("main", {1});
    main.rowOp(fuBR0(), op::fork(0, {op::imm(1)}));
    main.rowOp(fuBR0(), op::fork(0, {op::imm(2)}));
    main.rowOp(fuBR0(), op::ethr());
    return pb.finish(1);
}

TEST(Arbitration, FixedPriorityStarvesTheLaterThread)
{
    auto m = config::baseline();
    m.arbitration = config::ArbitrationPolicy::FixedPriority;
    const isa::Program prog = contendingProgram(m.clusters.size(), 40);
    Simulator s(m, prog);
    const auto stats = s.run();
    // Thread 1 (higher priority) finishes roughly a full chain before
    // thread 2.
    const auto gap = static_cast<std::int64_t>(
                         stats.threads[2].endCycle) -
                     static_cast<std::int64_t>(
                         stats.threads[1].endCycle);
    EXPECT_GE(gap, 30);
}

TEST(Arbitration, RoundRobinInterleavesFairly)
{
    auto m = config::baseline();
    m.arbitration = config::ArbitrationPolicy::RoundRobin;
    const isa::Program prog = contendingProgram(m.clusters.size(), 40);
    Simulator s(m, prog);
    const auto stats = s.run();
    const auto gap = static_cast<std::int64_t>(
                         stats.threads[2].endCycle) -
                     static_cast<std::int64_t>(
                         stats.threads[1].endCycle);
    // Both make progress each cycle pair: they end close together.
    EXPECT_LE(gap, 6);
    EXPECT_GE(gap, -6);
}

TEST(Arbitration, PoliciesPreserveResults)
{
    for (auto policy : {config::ArbitrationPolicy::FixedPriority,
                        config::ArbitrationPolicy::RoundRobin}) {
        auto m = config::baseline();
        m.arbitration = policy;
        core::CoupledNode node(m);
        const auto run = node.runBenchmark(benchmarks::byName("FFT"),
                                           core::SimMode::Coupled);
        std::string why;
        EXPECT_TRUE(benchmarks::verify("FFT", run, &why)) << why;
    }
}

TEST(Arbitration, ParsedFromConfigText)
{
    const auto m = config::parseMachine(
        "(machine rr (cluster (iu) (fpu) (mem)) (cluster (br))"
        " (arbitration round-robin))");
    EXPECT_EQ(m.arbitration, config::ArbitrationPolicy::RoundRobin);
    EXPECT_THROW(config::parseMachine(
                     "(machine x (cluster (iu) (mem)) (cluster (br))"
                     " (arbitration lottery))"),
                 CompileError);
}

TEST(Trace, EmitsAllEventKinds)
{
    const auto m = config::baseline();
    ProgramBuilder pb(m.clusters.size());
    const auto a = pb.data("a", 1);

    auto child = pb.thread("child", {0, 2});
    child.rowOp(fuIU(1), op::mov(rr(1, 0), op::imm(3)));
    child.rowOp(testutil::fuMU(1),
                op::st(op::imm(a), op::imm(0), op::reg(rr(1, 0))));
    child.rowOp(fuBR0(), op::ethr());

    auto main = pb.thread("main", {2});
    main.rowOp(fuBR0(), op::fork(0, {}));
    main.rowOp(testutil::fuMU(0),
               op::ld(rr(0, 0), op::imm(a), op::imm(0),
                      MemFlavor::waitLoad()));
    main.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 1),
                                op::reg(rr(0, 0)), op::imm(1)));
    main.rowOp(fuBR0(), op::ethr());

    const isa::Program prog = pb.finish(1);
    Simulator s(m, prog);
    std::map<sim::TraceEvent::Kind, int> seen;
    s.setTracer([&](const sim::TraceEvent& e) { ++seen[e.kind]; });
    s.run();

    EXPECT_GE(seen[sim::TraceEvent::Kind::Issue], 6);
    EXPECT_GE(seen[sim::TraceEvent::Kind::Writeback], 2);
    EXPECT_GE(seen[sim::TraceEvent::Kind::MemComplete], 1);
    // The entry thread spawns in the constructor, before a tracer can
    // be installed; only the forked child's spawn is observable.
    EXPECT_EQ(seen[sim::TraceEvent::Kind::Spawn], 1);
    EXPECT_EQ(seen[sim::TraceEvent::Kind::Retire], 2);
}

TEST(Trace, EventsRenderReadably)
{
    sim::TraceEvent e;
    e.kind = sim::TraceEvent::Kind::Issue;
    e.cycle = 17;
    e.thread = 3;
    e.fu = 5;
    e.detail = "iadd c0.r1 c0.r0, #1";
    const std::string s = e.toString();
    EXPECT_NE(s.find("[17]"), std::string::npos);
    EXPECT_NE(s.find("t3"), std::string::npos);
    EXPECT_NE(s.find("fu5"), std::string::npos);
    EXPECT_NE(s.find("issue"), std::string::npos);
}

TEST(BankConflicts, EnabledModelSlowsParallelAccesses)
{
    // Many simultaneous loads to one bank: the conflict model must
    // cost cycles, and results stay correct.
    const auto& bm = benchmarks::byName("Matrix");

    auto fast = config::baseline();
    auto banked = config::baseline();
    banked.memory.numBanks = 1;  // worst case: everything conflicts
    banked.memory.modelBankConflicts = true;

    core::CoupledNode node_fast(fast);
    core::CoupledNode node_banked(banked);
    const auto a = node_fast.runBenchmark(bm, core::SimMode::Coupled);
    const auto b = node_banked.runBenchmark(bm, core::SimMode::Coupled);
    EXPECT_GT(b.stats.cycles, a.stats.cycles);
    std::string why;
    EXPECT_TRUE(benchmarks::verify("Matrix", b, &why)) << why;
}

TEST(ActiveSet, TightLimitStillComputesCorrectly)
{
    auto m = config::baseline();
    m.maxActiveThreads = 2;
    core::CoupledNode node(m);
    const auto run =
        node.runBenchmark(benchmarks::byName("Matrix"),
                          core::SimMode::Coupled);
    std::string why;
    EXPECT_TRUE(benchmarks::verify("Matrix", run, &why)) << why;
    EXPECT_LE(run.stats.peakActiveThreads, 2);
}

TEST(OpCache, DisabledIsAlwaysPresent)
{
    sim::OpCaches caches(config::OpCacheConfig{}, 4);
    EXPECT_TRUE(caches.present(0, 0, 0, 0));
    EXPECT_EQ(caches.stats().misses, 0u);
}

TEST(OpCache, MissThenDelayedHit)
{
    config::OpCacheConfig cfg;
    cfg.enabled = true;
    cfg.linesPerUnit = 8;
    cfg.rowsPerLine = 4;
    cfg.missPenalty = 5;
    sim::OpCaches caches(cfg, 2);

    EXPECT_FALSE(caches.present(0, 0, 0, 10));   // miss, fetch starts
    EXPECT_FALSE(caches.present(0, 0, 1, 12));   // same line, in flight
    EXPECT_TRUE(caches.present(0, 0, 2, 15));    // line landed
    EXPECT_TRUE(caches.present(0, 0, 3, 16));
    // A different line of the same code misses separately.
    EXPECT_FALSE(caches.present(0, 0, 4, 16));
    // Unit 1 has its own cache.
    EXPECT_FALSE(caches.present(1, 0, 0, 20));
    EXPECT_EQ(caches.stats().misses, 3u);
}

TEST(OpCache, ThreadsSharingCodeShareLines)
{
    config::OpCacheConfig cfg;
    cfg.enabled = true;
    cfg.missPenalty = 4;
    sim::OpCaches caches(cfg, 1);
    EXPECT_FALSE(caches.present(0, /*code=*/3, 0, 0));
    // Another thread instance running the same code hits once the
    // line lands — no per-thread duplication.
    EXPECT_TRUE(caches.present(0, 3, 1, 4));
    // A different code image conflicts only by set mapping.
    EXPECT_FALSE(caches.present(0, 4, 0, 5));
}

TEST(OpCache, EndToEndCorrectUnderTinyCache)
{
    auto machine = config::baseline();
    machine.opCache.enabled = true;
    machine.opCache.linesPerUnit = 2;
    machine.opCache.rowsPerLine = 2;
    machine.opCache.missPenalty = 6;

    core::CoupledNode node(machine);
    const auto run = node.runBenchmark(benchmarks::byName("Matrix"),
                                       core::SimMode::Coupled);
    std::string why;
    EXPECT_TRUE(benchmarks::verify("Matrix", run, &why)) << why;
    EXPECT_GT(run.stats.opCacheMisses, 0u);

    // And it must cost cycles relative to perfect caches.
    core::CoupledNode perfect(config::baseline());
    const auto base = perfect.runBenchmark(
        benchmarks::byName("Matrix"), core::SimMode::Coupled);
    EXPECT_GT(run.stats.cycles, base.stats.cycles);
}

/** main (high priority) blocks on a cell only a waiting thread can
 *  fill; with a one-thread active set this deadlocks unless idle
 *  swap-out gives the producer a slot. */
isa::Program
slotDeadlockProgram(std::size_t num_clusters)
{
    ProgramBuilder pb(num_clusters);
    const auto flag = pb.data("flag", 1);
    pb.init(flag, Value::makeInt(0), /*full=*/false);
    const auto out = pb.data("out", 1);

    auto producer = pb.thread("producer", {2});
    producer.rowOp(fuIU(0), op::mov(rr(0, 0), op::imm(41)));
    producer.rowOp(testutil::fuMU(0),
                   op::st(op::imm(flag), op::imm(0),
                          op::reg(rr(0, 0))));
    producer.rowOp(fuBR0(), op::ethr());

    auto main = pb.thread("main", {2});
    main.rowOp(fuBR0(), op::fork(0, {}));
    main.rowOp(testutil::fuMU(0),
               op::ld(rr(0, 0), op::imm(flag), op::imm(0),
                      MemFlavor::waitLoad()));
    main.rowOp(fuIU(0), op::alu(Opcode::IADD, rr(0, 1),
                                op::reg(rr(0, 0)), op::imm(1)));
    main.rowOp(testutil::fuMU(0),
               op::st(op::imm(out), op::imm(0), op::reg(rr(0, 1))));
    main.rowOp(fuBR0(), op::ethr());
    return pb.finish(1);
}

TEST(ThreadSwap, DisabledActiveSetOfOneDeadlocks)
{
    auto m = config::baseline();
    m.maxActiveThreads = 1;
    m.swapOutIdleCycles = 0;
    m.deadlockCycleLimit = 500;
    const isa::Program prog = slotDeadlockProgram(m.clusters.size());
    Simulator s(m, prog);
    EXPECT_THROW(s.run(), SimError);
}

TEST(ThreadSwap, IdleSwapOutBreaksTheDeadlock)
{
    auto m = config::baseline();
    m.maxActiveThreads = 1;
    m.swapOutIdleCycles = 10;
    m.deadlockCycleLimit = 5000;
    const isa::Program prog = slotDeadlockProgram(m.clusters.size());
    Simulator s(m, prog);
    s.run();
    const auto out = 1u;  // "out" follows "flag" in the data segment
    EXPECT_EQ(s.memory().peek(out).asInt(), 42);
}

TEST(ThreadSwap, PreservesBenchmarkResultsUnderTinyActiveSet)
{
    auto m = config::baseline();
    m.maxActiveThreads = 3;
    m.swapOutIdleCycles = 16;
    core::CoupledNode node(m);
    const auto run = node.runBenchmark(benchmarks::byName("FFT"),
                                       core::SimMode::Coupled);
    std::string why;
    EXPECT_TRUE(benchmarks::verify("FFT", run, &why)) << why;
    EXPECT_LE(run.stats.peakActiveThreads, 3);
}

} // namespace
} // namespace procoup
