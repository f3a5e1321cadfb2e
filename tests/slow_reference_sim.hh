#ifndef PROCOUP_TESTS_SLOW_REFERENCE_SIM_HH
#define PROCOUP_TESTS_SLOW_REFERENCE_SIM_HH

/**
 * @file
 * SlowReferenceSimulator — the simulator's original, unoptimized cycle
 * loop, retained verbatim as an executable specification.
 *
 * This is the pre-hot-path-overhaul sim::Simulator: every function unit
 * rescans every slot of every active thread's row, the writeback queue
 * is re-sorted with std::stable_sort each cycle, pipeline completions
 * are found by a linear erase-scan, every quiescent cycle is stepped
 * individually, and issue/writeback allocate freely. It is O(big) and
 * proud of it: the point is that its per-cycle semantics are trivially
 * auditable against docs/INTERNALS.md.
 *
 * tests/sim_hotpath_property_test.cc runs randomized programs on
 * randomized machine configurations through both simulators and
 * requires bit-identical RunStats (including the stall-attribution
 * buckets and the conservation identity) and identical memory images.
 * Any divergence is a bug in the optimized hot path — this file should
 * only ever change when the *semantics* of the simulator change, in
 * which case the golden-cycle tests move too.
 *
 * Deliberately header-only and test-only: the production library never
 * links it.
 */

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "procoup/config/machine.hh"
#include "procoup/config/validate.hh"
#include "procoup/fault/fault.hh"
#include "procoup/isa/program.hh"
#include "procoup/isa/alu.hh"
#include "procoup/sim/interconnect.hh"
#include "procoup/sim/memory.hh"
#include "procoup/sim/opcache.hh"
#include "procoup/sim/stats.hh"
#include "procoup/sim/thread.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace simtest {

/** The original O(FUs × threads × slots) simulator, kept as a spec. */
class SlowReferenceSimulator
{
  public:
    SlowReferenceSimulator(const config::MachineConfig& machine,
                           const isa::Program& program,
                           const sim::SimOptions& options = {})
        : machine(machine), program(program), opts(options),
          network(machine.interconnect,
                  static_cast<int>(machine.clusters.size())),
          opCaches(machine.opCache, machine.numFus())
    {
        config::validateProgram(this->program, machine);

        // Fault injection mirrors the optimized simulator exactly:
        // one injector, draws at the same events in the same order
        // (memory schedule, issued ALU op, FORK) — the differential
        // test requires bit-identical faulted RunStats too. Budgets
        // and the sanitizer are not mirrored here; the reference sim
        // exists to specify the cycle semantics, not the harness.
        if (opts.faults.enabled)
            faults =
                std::make_unique<fault::FaultInjector>(opts.faults);

        for (int fu = 0; fu < machine.numFus(); ++fu) {
            FuState f;
            f.cluster = machine.fuCluster(fu);
            f.type = machine.fuConfig(fu).type;
            f.latency = machine.fuConfig(fu).latency;
            fus.push_back(f);
        }
        _stats.opsByFu.assign(fus.size(), 0);
        _stats.stallsByFu.assign(fus.size(), sim::StallCounts{});
        _stats.stallsByCluster.assign(machine.clusters.size(),
                                      sim::StallCounts{});
        rrLastThread.assign(fus.size(), -1);

        mem = std::make_unique<sim::MemorySystem>(machine.memory,
                                                  program.memorySize,
                                                  program.memInits);
        mem->setFaultInjector(faults.get());

        spawnThread(program.entry, {});
    }

    sim::RunStats run()
    {
        while (step()) {
        }
        return stats();
    }

    bool step()
    {
        if (finished())
            return false;

        progressThisCycle = false;
        network.beginCycle();

        // 1. Memory arrivals: completed loads join the writeback queue.
        for (auto& cl : mem->tick(_cycle)) {
            for (const auto& dst : cl.dsts) {
                WbEntry e;
                e.thread = cl.thread;
                e.dst = dst;
                e.value = cl.value;
                e.srcCluster = cl.srcCluster;
                e.seq = wbSeq++;
                wbQueue.push_back(std::move(e));
            }
            progressThisCycle = true;
        }

        // 2. Function-unit pipeline completions.
        for (auto it = inFlight.begin(); it != inFlight.end();) {
            if (it->completeCycle <= _cycle) {
                for (const auto& dst : it->dsts) {
                    WbEntry e;
                    e.thread = it->thread;
                    e.dst = dst;
                    e.value = it->value;
                    e.srcCluster = it->srcCluster;
                    e.seq = wbSeq++;
                    wbQueue.push_back(std::move(e));
                }
                it = inFlight.erase(it);
                progressThisCycle = true;
            } else {
                ++it;
            }
        }

        // 3. Writeback arbitration over the interconnection network.
        doWriteback();

        // 4. Issue: each unit independently selects one ready pending
        //    operation over a frozen view of the presence bits.
        std::vector<IssueDecision> decisions;
        const bool round_robin =
            machine.arbitration == config::ArbitrationPolicy::RoundRobin;
        for (std::size_t fu = 0; fu < fus.size(); ++fu) {
            const std::size_t n = activeList.size();
            std::size_t start = 0;
            if (round_robin && n > 0) {
                while (start < n &&
                       activeList[start] <= rrLastThread[fu])
                    ++start;
                if (start == n)
                    start = 0;
            }
            bool taken = false;
            int blockedThread = -1;
            sim::StallCause blockedCause = sim::StallCause::NoReadyOp;
            for (std::size_t k = 0; k < n && !taken; ++k) {
                const int ti = activeList[(start + k) % n];
                sim::ThreadContext& t = *threads[ti];
                const auto& inst = t.currentInstruction();
                for (std::size_t s = 0; s < inst.slots.size(); ++s) {
                    if (inst.slots[s].fu != fu || t.slotIssued(s))
                        continue;
                    const bool ready =
                        operandsReady(t, inst.slots[s].op);
                    if (ready &&
                        opCaches.present(static_cast<int>(fu),
                                         t.codeIndex(),
                                         static_cast<std::uint32_t>(
                                             t.ip()),
                                         _cycle)) {
                        decisions.push_back({static_cast<int>(fu),
                                             static_cast<int>(ti), s});
                        taken = true;
                        rrLastThread[fu] = ti;
                    } else if (blockedThread < 0) {
                        blockedThread = ti;
                        blockedCause =
                            ready ? sim::StallCause::OpcacheMiss
                                  : classifyOperandStall(
                                        t, inst.slots[s].op);
                    }
                    break;  // at most one op per (thread, fu) per row
                }
            }
            if (!taken) {
                if (n == 0)
                    noteFuCycle(static_cast<int>(fu), -1,
                                sim::StallCause::IdleNoThread);
                else
                    noteFuCycle(static_cast<int>(fu), blockedThread,
                                blockedCause);
            }
        }
        for (const auto& d : decisions)
            executeIssue(d);

        // 5. End of cycle: retire/advance threads, activate spawns.
        bool freed_slot = false;
        for (int ti : activeList) {
            if (threads[ti]->endOfCycle(_cycle)) {
                progressThisCycle = true;
                freed_slot = true;
            }
        }
        std::erase_if(activeList, [&](int ti) {
            return threads[ti]->state() != sim::ThreadState::Active;
        });
        if (freed_slot)
            manageActiveSet();
        for (auto it = pendingSpawns.begin();
             it != pendingSpawns.end();) {
            if (it->readyCycle > _cycle + 1) {
                ++it;
                continue;
            }
            if (machine.maxActiveThreads > 0 &&
                    activeThreads() >= machine.maxActiveThreads) {
                waitingForSlot.push_back(std::move(*it));
            } else {
                spawnThread(it->forkTarget, it->args);
            }
            it = pendingSpawns.erase(it);
        }

        manageActiveSet();

        _stats.peakActiveThreads =
            std::max(_stats.peakActiveThreads, activeThreads());

        ++_cycle;
        if (progressThisCycle)
            lastProgressCycle = _cycle;
        checkDeadlock();
        return true;
    }

    bool finished() const
    {
        return activeList.empty() && suspended.empty() &&
               wbQueue.empty() && inFlight.empty() && mem->idle() &&
               pendingSpawns.empty() && waitingForSlot.empty();
    }

    std::uint64_t cycle() const { return _cycle; }
    const sim::MemorySystem& memory() const { return *mem; }
    int activeThreads() const
    {
        return static_cast<int>(activeList.size());
    }

    sim::RunStats stats() const
    {
        sim::RunStats out = _stats;
        out.cycles = _cycle;
        const auto& ms = mem->stats();
        out.memAccesses = ms.accesses;
        out.memHits = ms.hits;
        out.memMisses = ms.misses;
        out.memParked = ms.parked;
        out.memParkedCycles = ms.parkedCycles;
        out.memBankDelayCycles = ms.bankDelayCycles;
        out.opCacheHits = opCaches.stats().hits;
        out.opCacheMisses = opCaches.stats().misses;
        out.opCacheLineWaitCycles = opCaches.stats().lineWaitCycles;
        out.wbGrantsByCluster = network.stats().grantsByCluster;
        out.wbDenialsByCluster = network.stats().denialsByCluster;
        if (faults) {
            out.faultsEnabled = true;
            out.faults = faults->counts();
        }

        out.threads.clear();
        for (const auto& t : threads) {
            sim::ThreadStats ts;
            ts.name = t->code().name;
            ts.spawnCycle = t->spawnCycle();
            ts.endCycle = t->endCycle();
            ts.opsIssued = t->opsIssued();
            ts.stalls =
                threadStalls[static_cast<std::size_t>(t->id())];
            out.threads.push_back(ts);
        }
        return out;
    }

  private:
    struct FuState
    {
        int cluster = 0;
        isa::UnitType type = isa::UnitType::Integer;
        int latency = 1;
    };

    struct InFlightResult
    {
        std::uint64_t completeCycle = 0;
        int thread = 0;
        int srcCluster = 0;
        std::vector<isa::RegRef> dsts;
        isa::Value value;
    };

    struct WbEntry
    {
        int thread = 0;
        isa::RegRef dst;
        isa::Value value;
        int srcCluster = 0;
        std::uint64_t seq = 0;
    };

    struct PendingSpawn
    {
        std::uint64_t readyCycle = 0;
        std::uint32_t forkTarget = 0;
        std::vector<isa::Value> args;
    };

    struct IssueDecision
    {
        int fu = 0;
        int threadIndex = 0;
        std::size_t slot = 0;
    };

    void spawnThread(std::uint32_t fork_target,
                     const std::vector<isa::Value>& args)
    {
        const auto& code = program.threads.at(fork_target);
        const int id = static_cast<int>(threads.size());
        auto t = std::make_unique<sim::ThreadContext>(id, &code,
                                                      fork_target,
                                                      _cycle);
        PROCOUP_ASSERT(args.size() == code.paramHomes.size(),
                       "fork argument count mismatch");
        for (std::size_t i = 0; i < args.size(); ++i)
            t->regs().deposit(code.paramHomes[i], args[i]);
        if (t->state() == sim::ThreadState::Active)
            activeList.push_back(id);
        threads.push_back(std::move(t));
        threadStalls.push_back(sim::StallCounts{});
        ++_stats.threadsSpawned;
        progressThisCycle = true;
    }

    bool operandsReady(const sim::ThreadContext& t,
                       const isa::Operation& op) const
    {
        for (const auto& src : op.srcs)
            if (src.isReg() && !t.regs().isValid(src.reg()))
                return false;
        for (const auto& dst : op.dsts)
            if (!t.regs().isValid(dst))
                return false;
        return true;
    }

    std::vector<isa::Value>
    readSources(const sim::ThreadContext& t,
                const isa::Operation& op) const
    {
        std::vector<isa::Value> vals;
        vals.reserve(op.srcs.size());
        for (const auto& src : op.srcs)
            vals.push_back(src.isReg() ? t.regs().read(src.reg())
                                       : src.imm());
        return vals;
    }

    void noteFuCycle(int fu, int thread, sim::StallCause cause)
    {
        const int k = static_cast<int>(cause);
        ++_stats.stallsByFu[fu][k];
        ++_stats.stallsByCluster[fus[fu].cluster][k];
        ++_stats.stallsTotal[k];
        if (thread >= 0)
            ++threadStalls[thread][k];
    }

    sim::StallCause
    classifyOperandStall(const sim::ThreadContext& t,
                         const isa::Operation& op) const
    {
        const isa::RegRef* blocker = nullptr;
        for (const auto& src : op.srcs) {
            if (src.isReg() && !t.regs().isValid(src.reg())) {
                blocker = &src.reg();
                break;
            }
        }
        if (!blocker) {
            for (const auto& dst : op.dsts) {
                if (!t.regs().isValid(dst)) {
                    blocker = &dst;
                    break;
                }
            }
        }
        PROCOUP_ASSERT(blocker != nullptr,
                       "operand stall without an invalid register");

        for (const auto& e : wbQueue)
            if (e.thread == t.id() && e.dst == *blocker)
                return sim::StallCause::WritebackConflict;
        if (mem->hasPendingWrite(t.id(), *blocker))
            return sim::StallCause::MemoryBusy;
        return sim::StallCause::OperandNotReady;
    }

    void executeIssue(const IssueDecision& d)
    {
        using isa::Opcode;
        sim::ThreadContext& t = *threads[d.threadIndex];
        const auto& slot = t.currentInstruction().slots[d.slot];
        const isa::Operation& op = slot.op;
        const FuState& fu = fus[d.fu];

        const std::vector<isa::Value> srcs = readSources(t, op);

        for (const auto& dst : op.dsts)
            t.regs().clearValid(dst);

        switch (op.opcode) {
          case Opcode::LD: {
            const std::int64_t addr = srcs[0].asInt() + srcs[1].asInt();
            if (addr < 0)
                throw SimError(strCat("negative load address ", addr,
                                      " in thread ", t.id()));
            mem->issueLoad(_cycle, t.id(),
                           static_cast<std::uint32_t>(addr), op.flavor,
                           sim::RegList(op.dsts.begin(), op.dsts.end()),
                           fu.cluster);
            break;
          }
          case Opcode::ST: {
            const std::int64_t addr = srcs[0].asInt() + srcs[1].asInt();
            if (addr < 0)
                throw SimError(strCat("negative store address ", addr,
                                      " in thread ", t.id()));
            mem->issueStore(_cycle, t.id(),
                            static_cast<std::uint32_t>(addr), op.flavor,
                            srcs[2]);
            break;
          }
          case Opcode::BR:
            t.setBranch(true, op.branchTarget, _cycle + fu.latency - 1);
            break;
          case Opcode::BT:
            t.setBranch(srcs[0].truthy(), op.branchTarget,
                        _cycle + fu.latency - 1);
            break;
          case Opcode::BF:
            t.setBranch(!srcs[0].truthy(), op.branchTarget,
                        _cycle + fu.latency - 1);
            break;
          case Opcode::FORK: {
            PendingSpawn ps;
            ps.readyCycle = _cycle + fu.latency;
            if (faults)
                ps.readyCycle +=
                    static_cast<std::uint64_t>(faults->spawnDelay());
            ps.forkTarget = op.forkTarget;
            ps.args = srcs;
            pendingSpawns.push_back(std::move(ps));
            break;
          }
          case Opcode::ETHR:
            t.setEnd(_cycle + fu.latency - 1);
            break;
          case Opcode::MARK:
            _stats.marks.push_back({t.id(), op.markId, _cycle});
            break;
          case Opcode::NOP:
            break;
          default: {
            InFlightResult r;
            r.completeCycle = _cycle + fu.latency;
            if (faults)
                r.completeCycle += static_cast<std::uint64_t>(
                    faults->pipelineBubble());
            r.thread = t.id();
            r.srcCluster = fu.cluster;
            r.dsts = op.dsts;
            r.value = isa::evalAlu(op.opcode, srcs);
            inFlight.push_back(std::move(r));
            break;
          }
        }

        t.markIssued(d.slot);
        t.noteIssue(_cycle);
        noteFuCycle(d.fu, t.id(), sim::StallCause::Issued);
        ++_stats.opsByFu[d.fu];
        ++_stats.opsByUnit[static_cast<int>(fu.type)];
        ++_stats.totalOps;
        progressThisCycle = true;
    }

    void doWriteback()
    {
        std::stable_sort(wbQueue.begin(), wbQueue.end(),
                         [](const WbEntry& a, const WbEntry& b) {
                             if (a.thread != b.thread)
                                 return a.thread < b.thread;
                             return a.seq < b.seq;
                         });

        std::deque<WbEntry> still_waiting;
        for (auto& e : wbQueue) {
            if (network.tryGrant(e.srcCluster, e.dst.cluster)) {
                threads[e.thread]->regs().write(e.dst, e.value);
                ++_stats.writebacks;
                if (e.srcCluster != e.dst.cluster)
                    ++_stats.remoteWrites;
                progressThisCycle = true;
            } else {
                still_waiting.push_back(std::move(e));
            }
        }
        _stats.writebackStallCycles += still_waiting.size();
        wbQueue = std::move(still_waiting);
    }

    void manageActiveSet()
    {
        auto has_slot = [&] {
            return machine.maxActiveThreads == 0 ||
                   activeThreads() < machine.maxActiveThreads;
        };
        while (has_slot() && !suspended.empty()) {
            const int ti = suspended.front();
            suspended.pop_front();
            threads[ti]->noteIssue(_cycle);  // fresh idle clock
            activeList.push_back(ti);
            std::sort(activeList.begin(), activeList.end());
            progressThisCycle = true;
        }
        while (has_slot() && !waitingForSlot.empty()) {
            PendingSpawn ps = std::move(waitingForSlot.front());
            waitingForSlot.pop_front();
            spawnThread(ps.forkTarget, ps.args);
        }

        if (machine.swapOutIdleCycles <= 0 ||
                machine.maxActiveThreads <= 0)
            return;
        const bool someone_waits =
            !waitingForSlot.empty() || !suspended.empty();
        if (!someone_waits)
            return;
        for (auto it = activeList.begin(); it != activeList.end();) {
            sim::ThreadContext& t = *threads[*it];
            const bool idle =
                _cycle - t.lastIssueCycle() >
                static_cast<std::uint64_t>(machine.swapOutIdleCycles);
            if (idle) {
                suspended.push_back(*it);
                it = activeList.erase(it);
                progressThisCycle = true;
                if (!waitingForSlot.empty()) {
                    PendingSpawn ps = std::move(waitingForSlot.front());
                    waitingForSlot.pop_front();
                    spawnThread(ps.forkTarget, ps.args);
                }
            } else {
                ++it;
            }
        }
    }

    void checkDeadlock()
    {
        if (finished() || progressThisCycle)
            return;
        if (_cycle - lastProgressCycle >
                static_cast<std::uint64_t>(machine.deadlockCycleLimit))
            reportDeadlock();
    }

    // Byte-identical to sim::Simulator::reportDeadlock — the property
    // test compares what() strings when both simulators deadlock.
    [[noreturn]] void reportDeadlock()
    {
        std::string s = strCat("deadlock at cycle ", _cycle, ": ");
        s += strCat(mem->parkedCount(), " parked memory reference(s); ");
        s += strCat("stalls{",
                    sim::formatStallCounts(_stats.stallsTotal), "}; ");
        for (const auto& t : threads) {
            if (t->state() != sim::ThreadState::Active)
                continue;
            s += strCat("[thread ", t->id(), " '", t->code().name,
                        "' ip=", t->ip());
            const auto& inst = t->currentInstruction();
            for (std::size_t i = 0; i < inst.slots.size(); ++i) {
                if (t->slotIssued(i))
                    continue;
                const isa::Operation& op = inst.slots[i].op;
                s += strCat(" waiting:", op.toString());
                s += operandsReady(*t, op)
                         ? "{ready}"
                         : strCat("{",
                                  sim::stallCauseName(
                                      classifyOperandStall(*t, op)),
                                  "}");
            }
            s += "] ";
        }
        throw SimError(SimErrorKind::Deadlock, _cycle, s);
    }

    config::MachineConfig machine;
    isa::Program program;
    sim::SimOptions opts;
    std::unique_ptr<fault::FaultInjector> faults;

    std::vector<FuState> fus;
    std::vector<int> rrLastThread;

    std::unique_ptr<sim::MemorySystem> mem;
    sim::WritebackNetwork network;
    sim::OpCaches opCaches;

    std::vector<std::unique_ptr<sim::ThreadContext>> threads;
    std::vector<int> activeList;

    std::deque<PendingSpawn> pendingSpawns;
    std::deque<PendingSpawn> waitingForSlot;
    std::deque<int> suspended;

    std::vector<InFlightResult> inFlight;
    std::deque<WbEntry> wbQueue;
    std::uint64_t wbSeq = 0;

    std::uint64_t _cycle = 0;
    std::uint64_t lastProgressCycle = 0;
    bool progressThisCycle = false;

    std::vector<sim::StallCounts> threadStalls;

    sim::RunStats _stats;
};

} // namespace simtest
} // namespace procoup

#endif // PROCOUP_TESTS_SLOW_REFERENCE_SIM_HH
