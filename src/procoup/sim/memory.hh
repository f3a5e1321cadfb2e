#ifndef PROCOUP_SIM_MEMORY_HH
#define PROCOUP_SIM_MEMORY_HH

/**
 * @file
 * Node memory system.
 *
 * "Like the registers, each memory location has a valid bit. Different
 * flavors of loads and stores are used to access memory locations...
 * Memory operations that must wait for synchronization are held in the
 * memory system. When a subsequent reference changes a location's valid
 * bit, waiting operations reactivate and complete. This split
 * transaction protocol reduces memory traffic and allows memory units
 * to issue other operations." (paper, Section 2)
 *
 * Latency is "modeled statistically": hits take hitLatency cycles,
 * misses add a uniformly distributed penalty. Accesses to the same
 * address are kept in issue order; bank conflicts are off by default
 * (the paper's simplification) but can be enabled.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "procoup/config/machine.hh"
#include "procoup/isa/operation.hh"
#include "procoup/isa/program.hh"
#include "procoup/isa/value.hh"
#include "procoup/support/inline_vector.hh"
#include "procoup/support/rng.hh"

namespace procoup {
namespace fault { class FaultInjector; }
namespace sim {

/** Destination registers of one operation (inline up to maxDests). */
using RegList =
    support::InlineVec<isa::RegRef,
                       static_cast<std::size_t>(isa::Operation::maxDests)>;

/** A load that finished this cycle and needs register writeback. */
struct CompletedLoad
{
    int thread = 0;
    RegList dsts;
    isa::Value value;
    int srcCluster = 0;   ///< cluster of the issuing memory unit
    std::uint64_t issueCycle = 0;
};

/** Memory statistics filled during simulation. */
struct MemoryStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t parked = 0;
    std::uint64_t parkedCycles = 0;
    std::uint64_t bankDelayCycles = 0; ///< arrival delay from bank conflicts
};

/** The banked, presence-bit memory of one processor-coupled node. */
class MemorySystem
{
  public:
    MemorySystem(const config::MemoryConfig& cfg, std::uint32_t size,
                 const std::vector<isa::MemInit>& inits);

    /** Issue a load at @p cycle; completion is reported by tick(). */
    void issueLoad(std::uint64_t cycle, int thread, std::uint32_t addr,
                   isa::MemFlavor flavor, const RegList& dsts,
                   int src_cluster);

    /** Issue a store at @p cycle. */
    void issueStore(std::uint64_t cycle, int thread, std::uint32_t addr,
                    isa::MemFlavor flavor, const isa::Value& value);

    /**
     * Advance to @p cycle: process arrivals in issue order, run
     * precondition checks, park or perform, wake parked waiters on
     * presence-bit changes. Loads completed this cycle (ready for
     * writeback now) are appended to @p done; callers on the per-cycle
     * hot path pass a reused scratch vector.
     */
    void tick(std::uint64_t cycle, std::vector<CompletedLoad>& done);

    /** Convenience overload returning the completions by value. */
    std::vector<CompletedLoad> tick(std::uint64_t cycle);

    /**
     * The arrival cycle of the earliest in-flight transaction, or
     * UINT64_MAX when none is in flight. Parked references never move
     * on their own, so before this cycle tick() cannot complete or
     * wake anything — the basis of quiescent-cycle fast-forward.
     */
    std::uint64_t nextArrivalCycle() const;

    /** True when nothing is in flight and nothing is parked. */
    bool idle() const;

    /** Number of parked (synchronization-blocked) references. */
    std::size_t parkedCount() const;

    /**
     * Does an outstanding (in-flight or parked) load of @p thread
     * target register @p dst? Used by stall attribution: an issue
     * blocked on such a register is waiting on the memory system, not
     * on a function-unit pipeline. Looks only at @p thread's own
     * outstanding loads; O(1) when it has none.
     */
    bool hasPendingWrite(int thread, const isa::RegRef& dst) const;

    /** Debug/readback access. */
    const isa::Value& peek(std::uint32_t addr) const;
    bool isFull(std::uint32_t addr) const;
    void poke(std::uint32_t addr, const isa::Value& v, bool full);

    /**
     * Attach a fault injector: every schedule() adds the injector's
     * extra delay (jitter / burst / storm) before same-address ordering
     * and bank-conflict modeling are applied, so those rules still hold
     * under faults. Null (the default) is the zero-cost off state.
     */
    void setFaultInjector(fault::FaultInjector* inj) { faults = inj; }

    /**
     * Sanitizer re-validation (--sanitize): every parked reference must
     * have an unmet precondition, park queues must be non-empty, the
     * in-flight queue must be a heap on (arrival, id), and hit/miss
     * counts must sum to accesses. Throws SimError(InvariantViolation)
     * citing @p cycle on failure.
     */
    void sanitize(std::uint64_t cycle) const;

    /**
     * Sanitizer check of the per-thread outstanding-load index: each
     * thread's entry must list exactly the loads (ids and destination
     * registers) that a scan of the in-flight and parked references
     * finds for it. Throws SimError(InvariantViolation) on mismatch.
     */
    void sanitizeLoadIndex(std::uint64_t cycle) const;

    const MemoryStats& stats() const { return _stats; }

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(words.size());
    }

  private:
    struct Word
    {
        isa::Value value;
        bool full = true;
        /** Same-address ordering fence: the latest arrival scheduled
         *  to this word (0 before any access, which fences nothing). */
        std::uint64_t lastArrival = 0;
    };

    struct Transaction
    {
        std::uint64_t id = 0;
        bool isLoad = true;
        std::uint32_t addr = 0;
        isa::Value storeValue;
        isa::MemFlavor flavor;
        int thread = 0;
        RegList dsts;
        int srcCluster = 0;
        std::uint64_t issueCycle = 0;
        std::uint64_t arrivalCycle = 0;
        std::uint64_t parkedSince = 0;
    };

    /** A load not yet performed, indexed under its thread. */
    struct OutstandingLoad
    {
        std::uint64_t id = 0;
        RegList dsts;
    };

    /** Heap order for inFlight: true when @p a arrives after @p b
     *  (std heap algorithms keep the earliest (arrival, id) on top). */
    static bool arrivesLater(const Transaction& a, const Transaction& b)
    {
        if (a.arrivalCycle != b.arrivalCycle)
            return a.arrivalCycle > b.arrivalCycle;
        return a.id > b.id;
    }

    /** Queue @p tx in flight at its scheduled arrival cycle. */
    void launch(Transaction&& tx);

    Word& word(std::uint32_t addr);
    const Word& word(std::uint32_t addr) const;

    /** Compute the arrival cycle (latency model + ordering rules). */
    std::uint64_t schedule(std::uint64_t cycle, std::uint32_t addr);

    bool preconditionMet(const Transaction& tx) const;

    /** Apply the access and its postcondition. @return true if the
     *  presence bit changed. */
    bool perform(Transaction& tx, std::vector<CompletedLoad>& done);

    /** Re-examine the park queue of @p addr after a bit change. */
    void wakeParked(std::uint32_t addr, std::vector<CompletedLoad>& done,
                    std::uint64_t cycle);

    config::MemoryConfig cfg;
    std::vector<Word> words;
    Rng rng;

    std::uint64_t nextId = 0;

    /**
     * In flight: a binary min-heap on (arrivalCycle, id) in a vector
     * that keeps its capacity, so an access allocates nothing and
     * tick() pops each cycle's arrivals in order without sorting.
     */
    std::vector<Transaction> inFlight;

    /** Parked waiters per address, in arrival order. */
    std::map<std::uint32_t, std::deque<Transaction>> parked;

    /**
     * Outstanding (in-flight or parked) loads by thread id, in no
     * particular order: hasPendingWrite() reads only its thread's
     * entry, and a thread with no loads out costs one size check.
     */
    std::vector<std::vector<OutstandingLoad>> loadsByThread;

    /** Per-bank last service cycle (bank-conflict extension). */
    std::vector<std::uint64_t> bankBusyUntil;

    /** Optional fault injection hook (not owned; null when off). */
    fault::FaultInjector* faults = nullptr;

    MemoryStats _stats;
};

} // namespace sim
} // namespace procoup

#endif // PROCOUP_SIM_MEMORY_HH
