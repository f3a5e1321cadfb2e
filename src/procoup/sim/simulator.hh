#ifndef PROCOUP_SIM_SIMULATOR_HH
#define PROCOUP_SIM_SIMULATOR_HH

/**
 * @file
 * Cycle-level simulator of a processor-coupled node.
 *
 * Each cycle:
 *   1. memory arrivals complete (loads join the writeback queue);
 *   2. function-unit pipelines deliver results into the writeback queue;
 *   3. the writeback queue arbitrates for register-file ports/buses
 *      (interconnect scheme) and applies granted writes;
 *   4. every function unit independently selects one ready pending
 *      operation among the active threads (fixed priority = spawn
 *      order) and issues it — "ALUs are assigned to threads on a cycle
 *      by cycle basis";
 *   5. threads whose issue window drained advance their instruction
 *      pointer; FORKs spawn, ETHRs retire, deadlock is checked.
 *
 * The simulator is functional (exact values) but cycle-accurate in the
 * paper's sense: it counts cycles, operations, and unit utilization.
 *
 * The per-cycle hot path avoids both scanning and allocation (see
 * docs/INTERNALS.md, "Simulator hot path"): issue selection probes a
 * per-instruction slot index instead of rescanning instruction rows,
 * pipeline completions sit in a latency-bucketed wheel, writebacks
 * live in per-thread FIFO queues (no per-cycle sort) of which only
 * the non-empty ones are visited, and spans of
 * quiescent cycles — every unit stalled, only memory or pipeline
 * timers pending — are fast-forwarded in one step with their stall
 * accounting bulk-charged.
 */

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "procoup/config/machine.hh"
#include "procoup/fault/fault.hh"
#include "procoup/isa/program.hh"
#include "procoup/sim/interconnect.hh"
#include "procoup/sim/memory.hh"
#include "procoup/sim/opcache.hh"
#include "procoup/sim/stats.hh"
#include "procoup/sim/thread.hh"
#include "procoup/sim/trace.hh"
#include "procoup/support/inline_vector.hh"

namespace procoup {
namespace sim {

/** Resolved source values of one operation (inline up to FORK's max). */
using ValueList = support::InlineVec<isa::Value, 4>;

/**
 * Per-run execution budgets (fail-safe sweep execution). Zero means
 * unlimited. Exhausting a budget throws SimError with kind CycleLimit
 * or WallClockDeadline and the cycle it tripped at, so SweepRunner can
 * record the point as failed and keep the sweep alive.
 */
struct RunLimits
{
    /** Abort once this many cycles have executed. */
    std::uint64_t maxCycles = 0;

    /** Abort once this much host wall-clock time has elapsed since the
     *  first step. Checked every ~4k cycles: cheap, and an infinite
     *  simulated loop still trips it promptly. Which *cycle* it trips
     *  at depends on host speed; RunStats of completed runs do not. */
    double wallClockDeadlineMs = 0.0;
};

/** Optional per-run knobs: fault plan, budgets, sanitizer cadence. */
struct SimOptions
{
    /** Fault-injection schedule (default: disabled, zero-cost). */
    fault::FaultPlan faults;

    RunLimits limits;

    /**
     * Re-validate internal invariants every N cycles (0 = off): the
     * stall-conservation identity at every roll-up level, scoreboard
     * presence bits against pending producers, and the memory system's
     * full/empty bookkeeping. A final check also runs when the run
     * completes. Violations throw SimError(InvariantViolation).
     */
    std::uint64_t sanitizeEveryCycles = 0;
};

/** Executes one compiled program on one machine configuration. */
class Simulator
{
  public:
    /**
     * Bind a program to a machine. The program is validated against
     * the machine first (it may come from outside the compiler, e.g.
     * parsed assembly); the entry thread is spawned at cycle 0.
     *
     * Lifetime: the simulator borrows @p machine and @p program, which
     * must outlive it (a sweep's CompileCache owns the program; the
     * point owns the machine). Temporaries are rejected at compile
     * time by the deleted overloads below. @p options is copied.
     */
    Simulator(const config::MachineConfig& machine,
              const isa::Program& program,
              const SimOptions& options = {});
    Simulator(config::MachineConfig&&, const isa::Program&,
              const SimOptions& = {}) = delete;
    Simulator(const config::MachineConfig&, isa::Program&&,
              const SimOptions& = {}) = delete;

    ~Simulator();

    /** Run to completion. @throws SimError on deadlock, an exhausted
     *  budget, or a failed sanitizer check. */
    RunStats run();

    /**
     * Execute one cycle.
     * @return false when the machine is quiescent (nothing ran)
     *
     * When the cycle ends with every unit stalled and only timed
     * events (memory arrivals, pipeline completions, FORK activation)
     * pending, the clock jumps straight to the next event; the
     * skipped cycles are charged to the same stall buckets cycle-by-
     * cycle stepping would have produced. Statistics are bit-identical
     * either way. Fast-forward disables itself under a tracer and
     * under configurations whose per-cycle bookkeeping has side
     * effects (operation caches, idle swap-out).
     */
    bool step();

    /** True once all threads retired and all traffic drained. */
    bool finished() const;

    /** Cycles executed so far. */
    std::uint64_t cycle() const { return _cycle; }

    /** Results and synchronization state readback for harnesses. */
    const MemorySystem& memory() const { return *mem; }
    MemorySystem& memory() { return *mem; }

    /** Statistics accumulated so far (finalized copy). */
    RunStats stats() const;

    /** Number of currently active threads. */
    int activeThreads() const;

    /** Install (or clear, with nullptr) a trace sink. */
    void setTracer(TraceFn fn) { tracer = std::move(fn); }

    /** Also emit one Stall event per attributed empty FU-cycle.
     *  Off by default: stall events outnumber issues on most runs. */
    void setTraceStalls(bool on) { traceStalls = on; }

  private:
    struct FuState
    {
        int cluster = 0;
        isa::UnitType type = isa::UnitType::Integer;
        int latency = 1;
    };

    /** An ALU result travelling down a function-unit pipeline. The
     *  completion cycle is implied by its wheel bucket. */
    struct InFlightResult
    {
        int thread = 0;
        int srcCluster = 0;
        RegList dsts;
        isa::Value value;
    };

    /** A register write waiting for interconnect resources. The
     *  owning thread is implied by its per-thread queue; FIFO order
     *  within the queue replaces the old age sequence number. */
    struct WbEntry
    {
        isa::RegRef dst;
        isa::Value value;
        int srcCluster = 0;
    };

    /** A FORK waiting for its activation cycle (and a free slot). */
    struct PendingSpawn
    {
        std::uint64_t readyCycle = 0;
        std::uint32_t forkTarget = 0;
        ValueList args;
    };

    /** An issue decision made in the selection pass. */
    struct IssueDecision
    {
        int fu = 0;
        int threadIndex = 0;
        std::size_t slot = 0;
    };

    /** Per-cycle issue-scan view of one active thread. */
    struct IssueRow
    {
        ThreadContext* t = nullptr;
        const isa::Instruction* inst = nullptr;
        /** This thread's slot-index row: slot per fu, or -1. */
        const std::int16_t* slots = nullptr;
    };

    /** The (thread, cause) a unit's stalled cycle was charged to;
     *  reused by fast-forward to charge whole quiescent spans. */
    struct FuStall
    {
        int thread = -1;
        StallCause cause = StallCause::IdleNoThread;
    };

    void spawnThread(std::uint32_t fork_target, const ValueList& args);
    bool operandsReady(const ThreadContext& t,
                       const isa::Operation& op) const;
    ValueList readSources(const ThreadContext& t,
                          const isa::Operation& op) const;

    /** Emit a trace event; @p detail is only rendered when a tracer
     *  is installed (formatting is off the hot path). */
    template <typename DetailFn>
    void trace(TraceEvent::Kind kind, int thread, int fu,
               DetailFn&& detail)
    {
        if (tracer)
            emitTrace(kind, thread, fu, detail());
    }
    void emitTrace(TraceEvent::Kind kind, int thread, int fu,
                   std::string detail);

    /**
     * Charge function unit @p fu's slot for the current cycle to
     * exactly one StallCause bucket (per FU, per cluster, machine
     * total, and — when a thread is implicated — per thread).
     * Called exactly once per FU per cycle, making the conservation
     * identity cycles × numFus == issued + Σ stalls exact.
     */
    void noteFuCycle(int fu, int thread, StallCause cause);

    /** Bulk form of noteFuCycle for a fast-forwarded span of @p span
     *  identically-stalled cycles (no trace events: fast-forward is
     *  disabled under a tracer). */
    void chargeFuStallSpan(int fu, int thread, StallCause cause,
                           std::uint64_t span);

    /**
     * Why can't @p op of thread @p t issue? Distinguishes an operand
     * stuck in the writeback queue (port conflict), one still owed by
     * the memory system, and one in an FU pipeline.
     */
    StallCause classifyOperandStall(const ThreadContext& t,
                                    const isa::Operation& op) const;

    /** Phase 4: per-unit selection over the slot index, stall
     *  attribution, then application of the issue decisions. */
    void selectAndIssue();

    void enqueueWriteback(int thread, const isa::RegRef& dst,
                          const isa::Value& value, int src_cluster);

    void executeIssue(const IssueDecision& d);
    void doWriteback();
    void manageActiveSet();

    /**
     * The cycle ended with no progress, an empty writeback queue, and
     * no thread able to advance: jump to the cycle before the next
     * timed event, bulk-charging each unit's current stall cause for
     * the skipped span. Reports deadlock at exactly the cycle
     * cycle-by-cycle stepping would have.
     */
    void fastForwardQuiescentSpan();

    void checkDeadlock();
    [[noreturn]] void reportDeadlock();

    /**
     * Off-hot-path bookkeeping run at the top of a cycle, entered only
     * when some option armed it (slowChecks): budget enforcement,
     * sanitizer cadence, periodic op-cache flush. A disabled-options
     * run pays one predictable branch per cycle.
     */
    void preCycleChecks();

    /** --sanitize re-validation; throws SimError(InvariantViolation). */
    void sanitizeCheck() const;

    const config::MachineConfig& machine;
    const isa::Program& program;

    SimOptions opts;

    /** Live fault state; null when the plan is disabled (the hot-path
     *  hooks test this pointer and nothing else). */
    std::unique_ptr<fault::FaultInjector> faults;

    /** Any of budgets / sanitizer / op-cache flush armed? */
    bool slowChecks = false;

    std::uint64_t nextOpcacheFlush = 0;  ///< 0 = flushing off
    std::uint64_t nextSanitizeCycle = 0;
    std::uint64_t nextWallCheckCycle = 0;
    std::chrono::steady_clock::time_point wallStart;
    bool wallStarted = false;

    std::vector<FuState> fus;

    /** Per-unit last-served thread id (round-robin arbitration). */
    std::vector<int> rrLastThread;

    /**
     * Slot index, built at bind time: for thread function c,
     * slotIndex[c][row * numFus + fu] is the position in
     * instructions[row].slots of the operation bound to unit fu, or
     * -1. Each unit probes one entry per thread instead of rescanning
     * the row's slot list (at most one operation per (row, fu)).
     */
    std::vector<std::vector<std::int16_t>> slotIndex;

    std::unique_ptr<MemorySystem> mem;
    WritebackNetwork network;
    OpCaches opCaches;

    std::vector<std::unique_ptr<ThreadContext>> threads;

    /** Ids of Active threads, ascending (scan order = priority). */
    std::vector<int> activeList;

    std::vector<PendingSpawn> pendingSpawns;
    std::deque<PendingSpawn> waitingForSlot;  ///< maxActiveThreads queue

    /** Threads suspended by idle swap-out, FIFO resume order. */
    std::deque<int> suspended;

    /**
     * Completion wheel: bucket (cycle % wheel.size()) holds the
     * results completing at that cycle. Sized to the maximum unit
     * latency + 1, so an in-flight result never wraps onto a bucket
     * that drains before it is due.
     */
    std::vector<std::vector<InFlightResult>> wheel;
    std::size_t inFlightCount = 0;

    /**
     * Writeback queues, one per thread id, FIFO. Draining them in
     * thread-id order reproduces the old global (thread, age) sort
     * without sorting: entries are appended in age order and denied
     * entries are retained in place.
     */
    std::vector<std::vector<WbEntry>> wbByThread;
    std::size_t wbCount = 0;

    /**
     * Ids of the threads whose writeback queue is non-empty, ascending.
     * doWriteback() walks only these — the threads with queued writes,
     * not every thread ever spawned — in the same thread-id order.
     */
    std::vector<int> wbActive;

    std::uint64_t _cycle = 0;
    std::uint64_t lastProgressCycle = 0;
    bool progressThisCycle = false;

    /** Machine-level fast-forward eligibility (bind-time constant):
     *  no per-cycle side effects from op caches or idle swap-out. */
    bool ffMachineOk = false;

    TraceFn tracer;
    bool traceStalls = false;

    /** Per-thread stall attribution, indexed by thread id. */
    std::vector<StallCounts> threadStalls;

    /** Per-cycle scratch (members to keep their capacity). */
    std::vector<CompletedLoad> memDoneScratch;
    std::vector<IssueDecision> decisionScratch;
    std::vector<IssueRow> rowScratch;
    std::vector<FuStall> fuStallScratch;

    RunStats _stats;
};

} // namespace sim
} // namespace procoup

#endif // PROCOUP_SIM_SIMULATOR_HH
