#include "procoup/sim/memory.hh"

#include <algorithm>
#include <limits>

#include "procoup/fault/fault.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace sim {

MemorySystem::MemorySystem(const config::MemoryConfig& cfg,
                           std::uint32_t size,
                           const std::vector<isa::MemInit>& inits)
    : cfg(cfg), words(size), rng(cfg.seed),
      bankBusyUntil(std::max(cfg.numBanks, 1), 0)
{
    for (const auto& mi : inits) {
        PROCOUP_ASSERT(mi.addr < size, "memory init out of range");
        words[mi.addr].value = mi.value;
        words[mi.addr].full = mi.full;
    }
}

MemorySystem::Word&
MemorySystem::word(std::uint32_t addr)
{
    if (addr >= words.size())
        throw SimError(strCat("wild memory access: address ", addr,
                              " beyond data segment of ", words.size(),
                              " words"));
    return words[addr];
}

const MemorySystem::Word&
MemorySystem::word(std::uint32_t addr) const
{
    return const_cast<MemorySystem*>(this)->word(addr);
}

std::uint64_t
MemorySystem::schedule(std::uint64_t cycle, std::uint32_t addr)
{
    ++_stats.accesses;
    std::uint64_t arrival = cycle + cfg.hitLatency;
    if (cfg.missRate > 0.0 && rng.chance(cfg.missRate)) {
        ++_stats.misses;
        arrival += rng.uniformInt(cfg.missPenaltyMin, cfg.missPenaltyMax);
    } else {
        ++_stats.hits;
    }

    if (faults)
        arrival += faults->memoryDelay(cycle);

    // Keep same-address accesses in issue order (arrival may not
    // overtake an earlier access to the same word).
    Word& w = words[addr];
    arrival = std::max(arrival, w.lastArrival);
    w.lastArrival = arrival;

    if (cfg.modelBankConflicts) {
        const std::uint32_t bank = addr % bankBusyUntil.size();
        if (bankBusyUntil[bank] + 1 > arrival)
            _stats.bankDelayCycles +=
                bankBusyUntil[bank] + 1 - arrival;
        arrival = std::max(arrival, bankBusyUntil[bank] + 1);
        bankBusyUntil[bank] = arrival;
    }
    return arrival;
}

void
MemorySystem::launch(Transaction&& tx)
{
    inFlight.push_back(std::move(tx));
    std::push_heap(inFlight.begin(), inFlight.end(), arrivesLater);
}

void
MemorySystem::issueLoad(std::uint64_t cycle, int thread, std::uint32_t addr,
                        isa::MemFlavor flavor, const RegList& dsts,
                        int src_cluster)
{
    word(addr);  // range check at issue time

    Transaction tx;
    tx.id = nextId++;
    tx.isLoad = true;
    tx.addr = addr;
    tx.flavor = flavor;
    tx.thread = thread;
    tx.dsts = dsts;
    tx.srcCluster = src_cluster;
    tx.issueCycle = cycle;
    tx.arrivalCycle = schedule(cycle, addr);

    const auto t = static_cast<std::size_t>(thread);
    if (t >= loadsByThread.size())
        loadsByThread.resize(t + 1);
    loadsByThread[t].push_back({tx.id, dsts});
    launch(std::move(tx));
}

void
MemorySystem::issueStore(std::uint64_t cycle, int thread,
                         std::uint32_t addr, isa::MemFlavor flavor,
                         const isa::Value& value)
{
    word(addr);

    Transaction tx;
    tx.id = nextId++;
    tx.isLoad = false;
    tx.addr = addr;
    tx.storeValue = value;
    tx.flavor = flavor;
    tx.thread = thread;
    tx.issueCycle = cycle;
    tx.arrivalCycle = schedule(cycle, addr);
    launch(std::move(tx));
}

bool
MemorySystem::preconditionMet(const Transaction& tx) const
{
    switch (tx.flavor.pre) {
      case isa::MemPre::None:  return true;
      case isa::MemPre::Full:  return word(tx.addr).full;
      case isa::MemPre::Empty: return !word(tx.addr).full;
    }
    PROCOUP_PANIC("bad MemPre");
}

bool
MemorySystem::perform(Transaction& tx, std::vector<CompletedLoad>& done)
{
    Word& w = word(tx.addr);

    if (tx.isLoad) {
        auto& out = loadsByThread[static_cast<std::size_t>(tx.thread)];
        for (auto& l : out) {
            if (l.id == tx.id) {
                l = std::move(out.back());
                out.pop_back();
                break;
            }
        }
        CompletedLoad cl;
        cl.thread = tx.thread;
        cl.dsts = tx.dsts;
        cl.value = w.value;
        cl.srcCluster = tx.srcCluster;
        cl.issueCycle = tx.issueCycle;
        done.push_back(std::move(cl));
    } else {
        w.value = tx.storeValue;
    }

    const bool was_full = w.full;
    switch (tx.flavor.post) {
      case isa::MemPost::Leave:
        // A plain store still fills the location ("unconditional /
        // set full" is the only unconditional store in Table 1), so
        // Leave is only reachable here for loads and wait-full stores.
        break;
      case isa::MemPost::SetFull:
        w.full = true;
        break;
      case isa::MemPost::SetEmpty:
        w.full = false;
        break;
    }
    return w.full != was_full;
}

void
MemorySystem::wakeParked(std::uint32_t addr,
                         std::vector<CompletedLoad>& done,
                         std::uint64_t cycle)
{
    auto it = parked.find(addr);
    if (it == parked.end())
        return;

    auto& queue = it->second;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
            if (!preconditionMet(*qit))
                continue;
            Transaction tx = std::move(*qit);
            queue.erase(qit);
            _stats.parkedCycles += cycle - tx.parkedSince;
            perform(tx, done);
            progressed = true;
            break;  // state changed; rescan from the front
        }
    }
    if (queue.empty())
        parked.erase(it);
}

void
MemorySystem::tick(std::uint64_t cycle, std::vector<CompletedLoad>& done)
{
    // Arrivals due by this cycle pop in (arrival, issue-id) order.
    // Performing or parking one never launches another, so popping
    // them one at a time visits exactly the sorted batch.
    while (!inFlight.empty() && inFlight.front().arrivalCycle <= cycle) {
        std::pop_heap(inFlight.begin(), inFlight.end(), arrivesLater);
        Transaction tx = std::move(inFlight.back());
        inFlight.pop_back();

        if (!preconditionMet(tx)) {
            ++_stats.parked;
            tx.parkedSince = cycle;
            parked[tx.addr].push_back(std::move(tx));
            continue;
        }
        const std::uint32_t addr = tx.addr;
        const bool changed = perform(tx, done);
        if (changed)
            wakeParked(addr, done, cycle);
    }
}

std::vector<CompletedLoad>
MemorySystem::tick(std::uint64_t cycle)
{
    std::vector<CompletedLoad> done;
    tick(cycle, done);
    return done;
}

std::uint64_t
MemorySystem::nextArrivalCycle() const
{
    if (inFlight.empty())
        return std::numeric_limits<std::uint64_t>::max();
    return inFlight.front().arrivalCycle;
}

bool
MemorySystem::idle() const
{
    return inFlight.empty() && parked.empty();
}

bool
MemorySystem::hasPendingWrite(int thread, const isa::RegRef& dst) const
{
    const auto t = static_cast<std::size_t>(thread);
    if (t >= loadsByThread.size())
        return false;
    for (const auto& l : loadsByThread[t])
        for (const auto& d : l.dsts)
            if (d == dst)
                return true;
    return false;
}

void
MemorySystem::sanitize(std::uint64_t cycle) const
{
    for (const auto& [addr, q] : parked) {
        if (q.empty())
            throw SimError(SimErrorKind::InvariantViolation, cycle,
                           strCat("sanitize: empty park queue kept for "
                                  "address ", addr));
        for (const auto& tx : q)
            if (preconditionMet(tx))
                throw SimError(SimErrorKind::InvariantViolation, cycle,
                               strCat("sanitize: parked reference at "
                                      "address ", addr, " (thread ",
                                      tx.thread, ") has a satisfied "
                                      "precondition but was never "
                                      "woken"));
    }
    if (!std::is_heap(inFlight.begin(), inFlight.end(), arrivesLater))
        throw SimError(SimErrorKind::InvariantViolation, cycle,
                       "sanitize: in-flight queue is not ordered by "
                       "(arrival, id)");

    if (_stats.hits + _stats.misses != _stats.accesses)
        throw SimError(SimErrorKind::InvariantViolation, cycle,
                       strCat("sanitize: memory hits (", _stats.hits,
                              ") + misses (", _stats.misses,
                              ") != accesses (", _stats.accesses, ")"));
}

void
MemorySystem::sanitizeLoadIndex(std::uint64_t cycle) const
{
    // Same ids and destinations, thread by thread.
    std::vector<std::vector<OutstandingLoad>> scanned(
        loadsByThread.size());
    auto note = [&](const Transaction& tx) {
        const auto t = static_cast<std::size_t>(tx.thread);
        if (t >= scanned.size())
            throw SimError(SimErrorKind::InvariantViolation, cycle,
                           strCat("sanitize: outstanding load of thread ",
                                  tx.thread, " missing from the "
                                  "per-thread load index"));
        scanned[t].push_back({tx.id, tx.dsts});
    };
    for (const auto& tx : inFlight)
        if (tx.isLoad)
            note(tx);
    for (const auto& [addr, q] : parked)
        for (const auto& tx : q)
            if (tx.isLoad)
                note(tx);
    auto by_id = [](const OutstandingLoad& a, const OutstandingLoad& b) {
        return a.id < b.id;
    };
    for (std::size_t t = 0; t < scanned.size(); ++t) {
        auto indexed = loadsByThread[t];
        std::sort(indexed.begin(), indexed.end(), by_id);
        std::sort(scanned[t].begin(), scanned[t].end(), by_id);
        bool same = indexed.size() == scanned[t].size();
        for (std::size_t i = 0; same && i < indexed.size(); ++i)
            same = indexed[i].id == scanned[t][i].id &&
                   indexed[i].dsts == scanned[t][i].dsts;
        if (!same)
            throw SimError(SimErrorKind::InvariantViolation, cycle,
                           strCat("sanitize: thread ", t, " has ",
                                  indexed.size(), " indexed outstanding "
                                  "load(s) but a scan of the memory "
                                  "system finds ", scanned[t].size(),
                                  " (or different ones)"));
    }
}

std::size_t
MemorySystem::parkedCount() const
{
    std::size_t n = 0;
    for (const auto& [addr, q] : parked)
        n += q.size();
    return n;
}

const isa::Value&
MemorySystem::peek(std::uint32_t addr) const
{
    return word(addr).value;
}

bool
MemorySystem::isFull(std::uint32_t addr) const
{
    return word(addr).full;
}

void
MemorySystem::poke(std::uint32_t addr, const isa::Value& v, bool full)
{
    Word& w = word(addr);
    w.value = v;
    w.full = full;
}

} // namespace sim
} // namespace procoup
