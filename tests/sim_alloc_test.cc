/** @file Allocation pin for the simulator's cycle loop.
 *
 *  This binary replaces the global operator new with a counting one
 *  and counts the heap allocations made inside Simulator::run() — the
 *  whole cycle loop plus the final RunStats copy — for a few paper
 *  workloads. What may allocate there is bounded by the number of
 *  threads the run spawns (per-thread contexts, register sets, queue
 *  storage, and the per-thread entries of the returned RunStats) plus
 *  a constant for containers reaching their steady capacity. A cost
 *  per simulated cycle or per memory access (a node-based queue, a
 *  per-access destination vector, a per-tick sort buffer) breaks the
 *  bound by orders of magnitude.
 *
 *  Kept in its own binary: the replacement operator new is global to
 *  the executable. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/sim/simulator.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void*
countedAlloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace procoup {
namespace {

struct AllocCount
{
    std::uint64_t allocs = 0;
    std::uint64_t threads = 0;
    std::uint64_t cycles = 0;
};

AllocCount
countRun(const config::MachineConfig& machine, const char* bench)
{
    core::CoupledNode node(machine);
    const auto& b = benchmarks::byName(bench);
    const auto prog =
        node.compile(b.forMode(core::SimMode::Coupled),
                     core::SimMode::Coupled)
            .program;
    sim::Simulator s(machine, prog);

    g_allocs.store(0);
    g_counting.store(true);
    const sim::RunStats st = s.run();
    g_counting.store(false);

    AllocCount c;
    c.allocs = g_allocs.load();
    c.threads = st.threadsSpawned;
    c.cycles = st.cycles;
    std::cout << bench << ": " << c.allocs << " allocations in run(), "
              << c.threads << " threads, " << c.cycles << " cycles\n";
    return c;
}

/**
 * The pinned bound: at most kPerThread allocations per spawned thread
 * plus kFixed. Measured counts (GCC 12, RelWithDebInfo): Matrix 208
 * for 10 threads, LUD 23,221 for 2,017 threads (11.5 per thread),
 * Model on Mem2 1,307 for 81 threads; before the memory event queue
 * and outstanding-load index they were 4,913, 83,743 and 5,462. The
 * per-thread part is thread-state construction (context, register
 * frames, issue window, queue storage, the RunStats entry) and the
 * park queues of synchronizing references.
 */
constexpr std::uint64_t kPerThread = 16;
constexpr std::uint64_t kFixed = 256;

void
expectBounded(const AllocCount& c)
{
    EXPECT_GT(c.allocs, 0u) << "the counting operator new saw nothing";
    EXPECT_LE(c.allocs, kPerThread * c.threads + kFixed)
        << c.threads << " threads, " << c.cycles << " cycles";
}

TEST(SimAlloc, MatrixCoupledRunIsBoundedByThreads)
{
    expectBounded(countRun(config::baseline(), "Matrix"));
}

TEST(SimAlloc, LudCoupledRunIsBoundedByThreads)
{
    expectBounded(countRun(config::baseline(), "LUD"));
}

TEST(SimAlloc, Mem2PointIsBoundedByThreads)
{
    expectBounded(countRun(config::withMem2(config::baseline()), "Model"));
}

} // namespace
} // namespace procoup
