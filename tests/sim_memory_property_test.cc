/** @file Property tests of the memory system: random sequences of
 *  flavored accesses against an independent, timing-free reference
 *  model of Table 1's presence-bit semantics, and random timed access
 *  streams (misses, bank conflicts, faults, same-address runs) against
 *  a small node-based event-queue reference that must deliver every
 *  completion in the same cycle and order. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "procoup/config/machine.hh"
#include "procoup/fault/fault.hh"
#include "procoup/sim/memory.hh"
#include "procoup/support/rng.hh"
#include "test_util.hh"

namespace procoup {
namespace {

using isa::MemFlavor;
using isa::Value;
using sim::MemorySystem;

constexpr int kWords = 4;

struct Access
{
    bool is_load = true;
    std::uint32_t addr = 0;
    MemFlavor flavor;
    std::int64_t store_value = 0;
    int id = 0;
};

/**
 * Reference model: words with presence bits and one FIFO park queue
 * per address, processed strictly in issue order with wake rescans —
 * structured as straight-line interpretation, independent of the
 * simulator's event machinery.
 */
struct Reference
{
    struct Word
    {
        std::int64_t value = 0;
        bool full = true;
    };

    std::vector<Word> words{kWords};
    std::map<std::uint32_t, std::deque<Access>> parked;
    std::map<int, std::int64_t> loads;  ///< access id -> loaded value

    bool
    preOk(const Access& a) const
    {
        switch (a.flavor.pre) {
          case isa::MemPre::None:  return true;
          case isa::MemPre::Full:  return words[a.addr].full;
          case isa::MemPre::Empty: return !words[a.addr].full;
        }
        return false;
    }

    /** @return true if the presence bit changed */
    bool
    perform(const Access& a)
    {
        Word& w = words[a.addr];
        if (a.is_load)
            loads[a.id] = w.value;
        else
            w.value = a.store_value;
        const bool was = w.full;
        if (a.flavor.post == isa::MemPost::SetFull)
            w.full = true;
        else if (a.flavor.post == isa::MemPost::SetEmpty)
            w.full = false;
        return w.full != was;
    }

    void
    wake(std::uint32_t addr)
    {
        auto it = parked.find(addr);
        if (it == parked.end())
            return;
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (auto q = it->second.begin(); q != it->second.end();
                 ++q) {
                if (!preOk(*q))
                    continue;
                Access a = *q;
                it->second.erase(q);
                perform(a);
                progressed = true;
                break;
            }
        }
        if (it->second.empty())
            parked.erase(it);
    }

    void
    submit(const Access& a)
    {
        if (!preOk(a)) {
            parked[a.addr].push_back(a);
            return;
        }
        if (perform(a))
            wake(a.addr);
    }

    std::size_t
    parkedCount() const
    {
        std::size_t n = 0;
        for (const auto& [addr, q] : parked)
            n += q.size();
        return n;
    }
};

MemFlavor
randomFlavor(Rng& rng, bool is_load)
{
    if (is_load) {
        switch (rng.uniformInt(0, 2)) {
          case 0: return MemFlavor::plainLoad();
          case 1: return MemFlavor::waitLoad();
          default: return MemFlavor::consumeLoad();
        }
    }
    switch (rng.uniformInt(0, 2)) {
      case 0: return MemFlavor::plainStore();
      case 1: return MemFlavor::updateStore();
      default: return MemFlavor::produceStore();
    }
}

class MemoryPropertySeeds : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPropertySeeds,
                         ::testing::Range(1, 17));

TEST_P(MemoryPropertySeeds, MatchesReferenceSemantics)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);

    config::MemoryConfig cfg;  // 1-cycle, no misses: pure semantics
    MemorySystem mem(cfg, kWords, {});
    Reference ref;

    const int n = 60;
    std::vector<Access> accesses;
    for (int i = 0; i < n; ++i) {
        Access a;
        a.id = i;
        a.is_load = rng.chance(0.5);
        a.addr = static_cast<std::uint32_t>(
            rng.uniformInt(0, kWords - 1));
        a.flavor = randomFlavor(rng, a.is_load);
        a.store_value = rng.uniformInt(1, 999);
        accesses.push_back(a);
    }

    // Issue one access per cycle (so arrival order == issue order,
    // matching the reference's sequential processing).
    std::map<int, std::int64_t> sim_loads;
    std::uint64_t cycle = 0;
    for (const auto& a : accesses) {
        if (a.is_load)
            mem.issueLoad(cycle, /*thread=*/a.id, a.addr, a.flavor,
                          {testutil::rr(0, 0)}, 0);
        else
            mem.issueStore(cycle, a.id, a.addr, a.flavor,
                           Value::makeInt(a.store_value));
        ++cycle;
        for (const auto& done : mem.tick(cycle))
            sim_loads[done.thread] = done.value.asInt();
        ref.submit(a);
    }
    // Drain any stragglers.
    for (int k = 0; k < 5; ++k) {
        ++cycle;
        for (const auto& done : mem.tick(cycle))
            sim_loads[done.thread] = done.value.asInt();
    }

    // Completed loads, final memory, presence bits, and the set of
    // still-parked references must all agree.
    EXPECT_EQ(sim_loads.size(), ref.loads.size());
    for (const auto& [id, v] : ref.loads) {
        ASSERT_TRUE(sim_loads.count(id)) << "load " << id;
        EXPECT_EQ(sim_loads[id], v) << "load " << id;
    }
    for (std::uint32_t a = 0; a < kWords; ++a) {
        EXPECT_EQ(mem.peek(a).asInt(), ref.words[a].value)
            << "word " << a;
        EXPECT_EQ(mem.isFull(a), ref.words[a].full) << "bit " << a;
    }
    EXPECT_EQ(mem.parkedCount(), ref.parkedCount());
}

/**
 * Timed reference: the memory system's event queue written the plain
 * way — a std::multimap keyed by arrival cycle whose due entries are
 * extracted and sorted by (arrival, issue id) each tick, a std::map
 * same-address fence, per-address std::deque park queues, and a scan
 * of every in-flight and parked load for hasPendingWrite. The latency
 * model (miss draws, fault delay, same-address fence, bank conflicts)
 * is applied in the documented order from its own RNG and injector.
 */
class TimedReference
{
  public:
    struct Done
    {
        int thread = 0;
        std::vector<isa::RegRef> dsts;
        Value value;
        int srcCluster = 0;
        std::uint64_t issueCycle = 0;
    };

    TimedReference(const config::MemoryConfig& cfg, std::uint32_t size,
                   const fault::FaultPlan& plan)
        : cfg(cfg), values(size), full(size, true), rng(cfg.seed),
          bankBusyUntil(std::max(cfg.numBanks, 1), 0)
    {
        if (plan.enabled)
            faults = std::make_unique<fault::FaultInjector>(plan);
    }

    void issue(std::uint64_t cycle, int thread, std::uint32_t addr,
               bool is_load, MemFlavor flavor,
               std::vector<isa::RegRef> dsts, const Value& store_value,
               int src_cluster)
    {
        Tx tx;
        tx.id = nextId++;
        tx.isLoad = is_load;
        tx.addr = addr;
        tx.storeValue = store_value;
        tx.flavor = flavor;
        tx.thread = thread;
        tx.dsts = std::move(dsts);
        tx.srcCluster = src_cluster;
        tx.issueCycle = cycle;
        tx.arrivalCycle = schedule(cycle, addr);
        inFlight.emplace(tx.arrivalCycle, std::move(tx));
    }

    std::vector<Done> tick(std::uint64_t cycle)
    {
        std::vector<Done> done;
        std::vector<Tx> due;
        for (auto it = inFlight.begin();
             it != inFlight.end() && it->first <= cycle;) {
            due.push_back(std::move(it->second));
            it = inFlight.erase(it);
        }
        std::sort(due.begin(), due.end(), [](const Tx& a, const Tx& b) {
            if (a.arrivalCycle != b.arrivalCycle)
                return a.arrivalCycle < b.arrivalCycle;
            return a.id < b.id;
        });
        for (auto& tx : due) {
            if (!preOk(tx)) {
                ++stats.parked;
                tx.parkedSince = cycle;
                parked[tx.addr].push_back(std::move(tx));
                continue;
            }
            if (perform(tx, done))
                wake(tx.addr, done, cycle);
        }
        return done;
    }

    std::uint64_t nextArrivalCycle() const
    {
        return inFlight.empty() ? ~std::uint64_t{0}
                                : inFlight.begin()->first;
    }

    bool hasPendingWrite(int thread, const isa::RegRef& dst) const
    {
        auto targets = [&](const Tx& tx) {
            return tx.isLoad && tx.thread == thread &&
                   std::find(tx.dsts.begin(), tx.dsts.end(), dst) !=
                       tx.dsts.end();
        };
        for (const auto& [arrival, tx] : inFlight)
            if (targets(tx))
                return true;
        for (const auto& [addr, q] : parked)
            for (const auto& tx : q)
                if (targets(tx))
                    return true;
        return false;
    }

    std::size_t parkedCount() const
    {
        std::size_t n = 0;
        for (const auto& [addr, q] : parked)
            n += q.size();
        return n;
    }

    bool inFlightEmpty() const { return inFlight.empty(); }

    config::MemoryConfig cfg;
    std::vector<Value> values;
    std::vector<bool> full;
    sim::MemoryStats stats;

  private:
    struct Tx
    {
        std::uint64_t id = 0;
        bool isLoad = true;
        std::uint32_t addr = 0;
        Value storeValue;
        MemFlavor flavor;
        int thread = 0;
        std::vector<isa::RegRef> dsts;
        int srcCluster = 0;
        std::uint64_t issueCycle = 0;
        std::uint64_t arrivalCycle = 0;
        std::uint64_t parkedSince = 0;
    };

    std::uint64_t schedule(std::uint64_t cycle, std::uint32_t addr)
    {
        ++stats.accesses;
        std::uint64_t arrival = cycle + cfg.hitLatency;
        if (cfg.missRate > 0.0 && rng.chance(cfg.missRate)) {
            ++stats.misses;
            arrival += rng.uniformInt(cfg.missPenaltyMin,
                                      cfg.missPenaltyMax);
        } else {
            ++stats.hits;
        }
        if (faults)
            arrival += faults->memoryDelay(cycle);
        auto it = lastArrival.find(addr);
        if (it != lastArrival.end())
            arrival = std::max(arrival, it->second);
        lastArrival[addr] = arrival;
        if (cfg.modelBankConflicts) {
            auto& busy = bankBusyUntil[addr % bankBusyUntil.size()];
            if (busy + 1 > arrival)
                stats.bankDelayCycles += busy + 1 - arrival;
            arrival = std::max(arrival, busy + 1);
            busy = arrival;
        }
        return arrival;
    }

    bool preOk(const Tx& tx) const
    {
        switch (tx.flavor.pre) {
          case isa::MemPre::None:  return true;
          case isa::MemPre::Full:  return full[tx.addr];
          case isa::MemPre::Empty: return !full[tx.addr];
        }
        return false;
    }

    bool perform(const Tx& tx, std::vector<Done>& done)
    {
        if (tx.isLoad)
            done.push_back({tx.thread, tx.dsts, values[tx.addr],
                            tx.srcCluster, tx.issueCycle});
        else
            values[tx.addr] = tx.storeValue;
        const bool was = full[tx.addr];
        if (tx.flavor.post == isa::MemPost::SetFull)
            full[tx.addr] = true;
        else if (tx.flavor.post == isa::MemPost::SetEmpty)
            full[tx.addr] = false;
        return full[tx.addr] != was;
    }

    void wake(std::uint32_t addr, std::vector<Done>& done,
              std::uint64_t cycle)
    {
        auto it = parked.find(addr);
        if (it == parked.end())
            return;
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (auto q = it->second.begin(); q != it->second.end();
                 ++q) {
                if (!preOk(*q))
                    continue;
                Tx tx = std::move(*q);
                it->second.erase(q);
                stats.parkedCycles += cycle - tx.parkedSince;
                perform(tx, done);
                progressed = true;
                break;
            }
        }
        if (it->second.empty())
            parked.erase(it);
    }

    Rng rng;
    std::unique_ptr<fault::FaultInjector> faults;
    std::vector<std::uint64_t> bankBusyUntil;
    std::uint64_t nextId = 0;
    std::multimap<std::uint64_t, Tx> inFlight;
    std::map<std::uint32_t, std::deque<Tx>> parked;
    std::map<std::uint32_t, std::uint64_t> lastArrival;
};

class TimedMemorySeeds : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TimedMemorySeeds, ::testing::Range(1, 41));

TEST_P(TimedMemorySeeds, EventQueueMatchesTimedReference)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    Rng rng(seed * 7919);

    constexpr std::uint32_t kTimedWords = 6;
    constexpr int kThreads = 5;
    config::MemoryConfig cfg;
    const int hit_pick[] = {0, 1, 2, 5};
    cfg.hitLatency = hit_pick[rng.uniformInt(0, 3)];
    cfg.missRate = rng.chance(0.5) ? 0.3 : 0.1;
    cfg.missPenaltyMin = 3;
    cfg.missPenaltyMax = static_cast<int>(rng.uniformInt(4, 40));
    cfg.numBanks = static_cast<int>(rng.uniformInt(1, 3));
    cfg.modelBankConflicts = true;
    cfg.seed = rng.next();
    const fault::FaultPlan plan =
        fault::FaultPlan::atIntensity(seed % 4 == 0 ? 0.0 : 0.8, seed);

    MemorySystem mem(cfg, kTimedWords, {});
    fault::FaultInjector injector(plan);
    if (plan.enabled)
        mem.setFaultInjector(&injector);
    TimedReference ref(cfg, kTimedWords, plan);

    std::uint64_t cycle = 0;
    std::uint32_t addr = 0;
    std::int64_t next_value = 1;
    std::size_t completions = 0;
    std::vector<sim::CompletedLoad> got;
    auto step = [&](bool issue) {
        got.clear();
        mem.tick(cycle, got);
        const auto want = ref.tick(cycle);
        ASSERT_EQ(got.size(), want.size()) << "cycle " << cycle;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].thread, want[i].thread) << "cycle " << cycle;
            EXPECT_TRUE(got[i].value == want[i].value) << "cycle " << cycle;
            EXPECT_EQ(got[i].srcCluster, want[i].srcCluster);
            EXPECT_EQ(got[i].issueCycle, want[i].issueCycle);
            EXPECT_TRUE(std::equal(got[i].dsts.begin(), got[i].dsts.end(),
                                   want[i].dsts.begin(),
                                   want[i].dsts.end()));
        }
        completions += got.size();
        if (issue) {
            for (auto n = rng.uniformInt(0, 3); n > 0; --n) {
                // Same-address runs: stay on the last word 40% of
                // the time.
                if (!rng.chance(0.4))
                    addr = static_cast<std::uint32_t>(
                        rng.uniformInt(0, kTimedWords - 1));
                const int thread =
                    static_cast<int>(rng.uniformInt(0, kThreads - 1));
                const bool is_load = rng.chance(0.5);
                const MemFlavor flavor = randomFlavor(rng, is_load);
                const int cluster = static_cast<int>(rng.uniformInt(0, 3));
                sim::RegList dsts{testutil::rr(
                    cluster, static_cast<int>(rng.uniformInt(0, 3)))};
                if (rng.chance(0.3))
                    dsts.push_back(testutil::rr(cluster, 4));
                const Value v = Value::makeInt(next_value++);
                if (is_load)
                    mem.issueLoad(cycle, thread, addr, flavor, dsts,
                                  cluster);
                else
                    mem.issueStore(cycle, thread, addr, flavor, v);
                ref.issue(cycle, thread, addr, is_load, flavor,
                          {dsts.begin(), dsts.end()}, v, cluster);
            }
        }
        ASSERT_EQ(mem.nextArrivalCycle(), ref.nextArrivalCycle())
            << "cycle " << cycle;
        ASSERT_EQ(mem.parkedCount(), ref.parkedCount()) << "cycle " << cycle;
        for (int t = 0; t < kThreads; ++t)
            for (int c = 0; c < 4; ++c)
                for (int r = 0; r <= 4; ++r)
                    ASSERT_EQ(mem.hasPendingWrite(t, testutil::rr(c, r)),
                              ref.hasPendingWrite(t, testutil::rr(c, r)))
                        << "cycle " << cycle << " thread " << t;
        mem.sanitize(cycle);
        mem.sanitizeLoadIndex(cycle);
        // Advance like the simulator: usually one cycle, sometimes a
        // fast-forward jump that lands past several arrivals at once.
        cycle += rng.chance(0.8) ? 1 : static_cast<std::uint64_t>(
                                           rng.uniformInt(2, 12));
    };

    for (int i = 0; i < 300; ++i) {
        step(true);
        if (HasFatalFailure())
            return;
    }
    while (!ref.inFlightEmpty()) {
        step(false);
        if (HasFatalFailure())
            return;
    }
    EXPECT_TRUE(mem.nextArrivalCycle() == ~std::uint64_t{0});
    EXPECT_GT(completions, 0u);

    const sim::MemoryStats& ms = mem.stats();
    EXPECT_EQ(ms.accesses, ref.stats.accesses);
    EXPECT_EQ(ms.hits, ref.stats.hits);
    EXPECT_EQ(ms.misses, ref.stats.misses);
    EXPECT_EQ(ms.parked, ref.stats.parked);
    EXPECT_EQ(ms.parkedCycles, ref.stats.parkedCycles);
    EXPECT_EQ(ms.bankDelayCycles, ref.stats.bankDelayCycles);
    EXPECT_GT(ms.misses, 0u);
    EXPECT_GT(ms.bankDelayCycles, 0u);
    EXPECT_GT(ms.parked, 0u);
    for (std::uint32_t a = 0; a < kTimedWords; ++a) {
        EXPECT_TRUE(mem.peek(a) == ref.values[a]) << "word " << a;
        EXPECT_EQ(mem.isFull(a), ref.full[a]) << "bit " << a;
    }
}

} // namespace
} // namespace procoup
