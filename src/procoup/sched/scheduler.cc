#include "procoup/sched/scheduler.hh"

#include <algorithm>
#include <map>
#include <set>

#include "procoup/opt/liveness.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace sched {

using ir::IrInstr;
using ir::Type;
using isa::Opcode;

namespace {

constexpr int kInfeasible = 1 << 29;

/** Identifies a value: a block-local definition (node id) or a
 *  cross-block import (read through a vreg's home register). */
struct ValueKey
{
    bool isImport = false;
    int defNode = -1;
    std::uint32_t vreg = ir::kNoReg;

    bool operator<(const ValueKey& o) const
    {
        if (isImport != o.isImport)
            return isImport < o.isImport;
        if (isImport)
            return vreg < o.vreg;
        return defNode < o.defNode;
    }

    static ValueKey
    ofImport(std::uint32_t v)
    {
        ValueKey k;
        k.isImport = true;
        k.vreg = v;
        return k;
    }

    static ValueKey
    ofDef(int node)
    {
        ValueKey k;
        k.defNode = node;
        return k;
    }
};

/** Where a value can be read: register and availability row. */
struct Location
{
    std::uint32_t reg = 0;
    int readyRow = 0;
};

/** One inserted inter-cluster copy (a MOV on the source cluster's
 *  integer unit — the paper's observation that moving data costs IU
 *  operations). */
struct CopyOp
{
    int row = 0;
    int fu = 0;
    int srcCluster = 0;
    std::uint32_t srcReg = 0;
    int dstCluster = 0;
    std::uint32_t dstReg = 0;
};

/** A source operand resolved against reaching definitions. */
struct NodeSrc
{
    enum class Kind { Const, Value };

    Kind kind = Kind::Const;
    isa::Value constVal;
    ValueKey value;
};

/** One schedulable operation. */
struct Node
{
    IrInstr instr;
    std::vector<NodeSrc> srcs;

    std::vector<std::pair<int, int>> preds;  ///< (node, latency)
    std::vector<int> succs;
    int predsLeft = 0;
    int height = 0;

    bool isTerminator = false;

    /** The final in-block definition of a cross-block register: must
     *  write the home register. */
    bool writesHome = false;

    // Schedule results.
    int cluster = -1;
    int fu = -1;
    int row = -1;

    /** Assigned destinations: (cluster, reg), at most maxDests. */
    std::vector<std::pair<int, std::uint32_t>> dests;
};

/** Per-function context: home registers and register allocation. */
class FunctionScheduler
{
  public:
    FunctionScheduler(const ir::ThreadFunc& func,
                      const config::MachineConfig& machine,
                      const FuncPlacement& placement)
        : func(func), machine(machine), placement(placement),
          regCounter(machine.clusters.size(), 0)
    {
        PROCOUP_ASSERT(!placement.clusterOrder.empty(),
                       "function with no allowed clusters");
        assignHomes();
    }

    int
    latencyOf(isa::UnitType t) const
    {
        int lat = 1;
        for (int fu : machine.fusOfType(t))
            lat = std::max(lat, machine.fuConfig(fu).latency);
        return lat;
    }

    std::uint32_t
    newTemp(int cluster)
    {
        return regCounter[cluster]++;
    }

    const ir::ThreadFunc& func;
    const config::MachineConfig& machine;
    const FuncPlacement& placement;

    std::vector<bool> cross;
    std::map<std::uint32_t, std::pair<int, std::uint32_t>> home;
    std::vector<std::uint32_t> regCounter;
    int copiesInserted = 0;

  private:
    void
    assignHomes()
    {
        const auto live = opt::computeLiveness(func);
        cross = opt::crossBlockRegs(func, live);

        // Home registers live only in clusters that own an integer
        // unit: transfers out of a cluster execute as MOVs on its IU,
        // so a home in a mover-less cluster (possible in the Figure 8
        // unit-mix machines) could strand the value.
        std::vector<int> home_clusters;
        for (int c : placement.clusterOrder)
            if (machine.fuInCluster(c, isa::UnitType::Integer) >= 0)
                home_clusters.push_back(c);
        if (home_clusters.empty())
            home_clusters = placement.clusterOrder;

        // Parameters first (their homes are the FORK landing pads),
        // then remaining cross-block registers; clusters round-robin
        // over the preference order.
        std::size_t rr = 0;
        auto place = [&](std::uint32_t v) {
            if (home.count(v))
                return;
            const int c = home_clusters[rr++ % home_clusters.size()];
            home[v] = {c, regCounter[c]++};
        };
        for (std::uint32_t p : func.params)
            place(p);
        for (std::uint32_t v = 0; v < func.regTypes.size(); ++v)
            if (cross[v])
                place(v);
    }
};

/** Schedules and emits one basic block. */
class BlockScheduler
{
  public:
    BlockScheduler(FunctionScheduler& fs, const ir::BasicBlock& block)
        : fs(fs), block(block)
    {}

    std::vector<isa::Instruction>
    run()
    {
        buildNodes();
        computeHeights();
        scheduleAll();
        return emit();
    }

  private:
    struct Candidate
    {
        int cluster = -1;
        int fu = -1;
        int row = -1;
        int cost = kInfeasible;

        struct MovPlan
        {
            std::size_t srcIndex = 0;
            int srcCluster = 0;
            std::uint32_t srcReg = 0;
            int movRow = 0;
            int movFu = 0;
        };
        std::vector<MovPlan> movs;

        /** Source indices satisfied by adding a producer dest slot. */
        std::vector<std::size_t> destAdds;
    };

    void buildNodes();
    void addEdge(int from, int to, int lat);
    void computeHeights();
    void scheduleAll();
    void scheduleNode(int n);
    Candidate evaluate(int n, int cluster);
    void commit(int n, const Candidate& cand);
    int firstFreeRow(int fu, int from) const;
    void markBusy(int fu, int row);
    std::map<int, Location>& locationsOf(const ValueKey& key);
    std::vector<isa::Instruction> emit();

    FunctionScheduler& fs;
    const ir::BasicBlock& block;

    std::vector<Node> nodes;
    int termNode = -1;
    std::map<std::uint32_t, int> leadCopy;
    std::map<ValueKey, std::map<int, Location>> locations;
    std::map<int, std::set<int>> busy;  ///< fu -> occupied rows
    std::vector<CopyOp> copies;
    int maxRow = -1;
};

// ===================================================================
// DAG construction
// ===================================================================

void
BlockScheduler::addEdge(int from, int to, int lat)
{
    PROCOUP_ASSERT(from != to, "self edge in dependence DAG");
    nodes[to].preds.emplace_back(from, lat);
}

void
BlockScheduler::buildNodes()
{
    // Which vregs does the block import (read before writing) and
    // also redefine? Those get renamed through a lead copy so a late
    // transfer can never read the redefined home register by mistake.
    std::set<std::uint32_t> defined;
    std::set<std::uint32_t> imported;
    std::set<std::uint32_t> redefined_imports;
    for (const auto& i : block.instrs) {
        for (const auto& s : i.srcs)
            if (s.isReg() && !defined.count(s.reg()))
                imported.insert(s.reg());
        if (i.dst != ir::kNoReg) {
            defined.insert(i.dst);
            if (imported.count(i.dst))
                redefined_imports.insert(i.dst);
        }
    }

    for (std::uint32_t v : redefined_imports) {
        PROCOUP_ASSERT(fs.home.count(v), "redefined import has no home");
        Node n;
        n.instr.op = Opcode::MOV;
        n.instr.dst = v;  // for type lookup; registers assigned later
        NodeSrc src;
        src.kind = NodeSrc::Kind::Value;
        src.value = ValueKey::ofImport(v);
        n.srcs.push_back(src);
        nodes.push_back(std::move(n));
        leadCopy[v] = static_cast<int>(nodes.size()) - 1;
    }

    std::map<std::uint32_t, int> def_node;
    std::vector<int> mem_nodes;
    std::vector<int> store_like;
    int last_fence = -1;

    // Two plain references may alias unless they touch different
    // symbols or provably different constant offsets of one symbol.
    auto may_alias = [](const IrInstr& a, const IrInstr& b) {
        if (!a.isMemory() || !b.isMemory())
            return true;  // fences order against everything
        if (a.memSym.empty() || b.memSym.empty())
            return true;
        if (a.memSym != b.memSym)
            return false;
        const auto& ao = a.srcs[1];
        const auto& bo = b.srcs[1];
        if (ao.isConst() && bo.isConst())
            return ao.constant().asInt() == bo.constant().asInt();
        return true;
    };

    for (const auto& i : block.instrs) {
        Node n;
        n.instr = i;
        n.isTerminator = i.isTerminator();
        for (const auto& s : i.srcs) {
            NodeSrc src;
            if (s.isConst()) {
                src.kind = NodeSrc::Kind::Const;
                src.constVal = s.constant();
            } else {
                src.kind = NodeSrc::Kind::Value;
                auto it = def_node.find(s.reg());
                if (it != def_node.end())
                    src.value = ValueKey::ofDef(it->second);
                else if (leadCopy.count(s.reg()))
                    src.value = ValueKey::ofDef(leadCopy[s.reg()]);
                else
                    src.value = ValueKey::ofImport(s.reg());
            }
            n.srcs.push_back(std::move(src));
        }
        nodes.push_back(std::move(n));
        const int id = static_cast<int>(nodes.size()) - 1;
        Node& node = nodes[id];

        // True dependences carry the producer's pipeline latency.
        for (const auto& src : node.srcs)
            if (src.kind == NodeSrc::Kind::Value && !src.value.isImport)
                addEdge(src.value.defNode, id,
                        fs.latencyOf(isa::unitTypeOf(
                            nodes[src.value.defNode].instr.op)));

        // Conservative memory / fence ordering (strict row order so
        // same-address accesses issue in program order).
        const bool is_mem = i.isMemory();
        const bool fence = i.isSyncMemory() || i.op == Opcode::FORK ||
                           i.op == Opcode::MARK;
        if (is_mem || i.op == Opcode::FORK || i.op == Opcode::MARK) {
            if (fence) {
                for (int m : mem_nodes)
                    addEdge(m, id, 1);
            } else if (i.op == Opcode::LD) {
                for (int s : store_like)
                    if (may_alias(nodes[s].instr, i))
                        addEdge(s, id, 1);
            } else {  // plain ST: after all aliasing memory refs
                for (int m : mem_nodes)
                    if (may_alias(nodes[m].instr, i))
                        addEdge(m, id, 1);
            }
            if (last_fence >= 0)
                addEdge(last_fence, id, 1);

            mem_nodes.push_back(id);
            if (i.op != Opcode::LD)
                store_like.push_back(id);
            if (fence)
                last_fence = id;
        }

        if (i.dst != ir::kNoReg)
            def_node[i.dst] = id;

        if (node.isTerminator) {
            PROCOUP_ASSERT(termNode == -1, "two terminators in block");
            termNode = id;
        }
    }

    // Write-after-read: the home-writing definition of a cross-block
    // register may not precede any reader of the imported value.
    std::map<std::uint32_t, std::vector<int>> import_readers;
    for (std::size_t id = 0; id < nodes.size(); ++id)
        for (const auto& src : nodes[id].srcs)
            if (src.kind == NodeSrc::Kind::Value && src.value.isImport)
                import_readers[src.value.vreg].push_back(
                    static_cast<int>(id));

    for (const auto& [v, node] : def_node) {
        if (!fs.cross[v])
            continue;
        nodes[node].writesHome = true;
        auto it = import_readers.find(v);
        if (it == import_readers.end())
            continue;
        for (int reader : it->second)
            if (reader != node)
                addEdge(reader, node, 0);
    }

    // Deduplicate edges (keep max latency) and derive succs/counts.
    for (auto& n : nodes) {
        std::map<int, int> best;
        for (const auto& [p, lat] : n.preds) {
            auto it = best.find(p);
            if (it == best.end() || it->second < lat)
                best[p] = lat;
        }
        n.preds.assign(best.begin(), best.end());
        n.predsLeft = static_cast<int>(n.preds.size());
    }
    for (std::size_t id = 0; id < nodes.size(); ++id)
        for (const auto& [p, lat] : nodes[id].preds)
            nodes[p].succs.push_back(static_cast<int>(id));
}

void
BlockScheduler::computeHeights()
{
    // All edges point from earlier to later nodes; process in reverse.
    for (int id = static_cast<int>(nodes.size()) - 1; id >= 0; --id) {
        int h = fs.latencyOf(isa::unitTypeOf(nodes[id].instr.op));
        for (int s : nodes[id].succs) {
            int lat = 0;
            for (const auto& [p, l] : nodes[s].preds)
                if (p == id)
                    lat = std::max(lat, l);
            h = std::max(h, nodes[s].height + lat);
        }
        nodes[id].height = h;
    }
}

// ===================================================================
// List scheduling
// ===================================================================

int
BlockScheduler::firstFreeRow(int fu, int from) const
{
    auto it = busy.find(fu);
    if (it == busy.end())
        return from;
    int r = from;
    while (it->second.count(r))
        ++r;
    return r;
}

void
BlockScheduler::markBusy(int fu, int row)
{
    busy[fu].insert(row);
    maxRow = std::max(maxRow, row);
}

std::map<int, Location>&
BlockScheduler::locationsOf(const ValueKey& key)
{
    auto it = locations.find(key);
    if (it != locations.end())
        return it->second;
    auto& locs = locations[key];
    if (key.isImport) {
        const auto& [cluster, reg] = fs.home.at(key.vreg);
        locs[cluster] = Location{reg, 0};
    }
    return locs;
}

BlockScheduler::Candidate
BlockScheduler::evaluate(int n, int cluster)
{
    Candidate cand;
    const Node& node = nodes[n];
    const isa::UnitType ut = isa::unitTypeOf(node.instr.op);
    const int fu = fs.machine.fuInCluster(cluster, ut);
    if (fu < 0)
        return cand;

    int earliest = 0;
    for (const auto& [p, lat] : node.preds) {
        PROCOUP_ASSERT(nodes[p].row >= 0, "predecessor not scheduled");
        earliest = std::max(earliest, nodes[p].row + lat);
    }

    // Rows claimed by this candidate's own planned copies, so two
    // copies in one candidate never share a unit-row.
    std::map<int, std::set<int>> claimed;
    auto first_free = [&](int f, int from) {
        int r = firstFreeRow(f, from);
        auto it = claimed.find(f);
        if (it != claimed.end())
            while (it->second.count(r))
                r = firstFreeRow(f, r + 1);
        return r;
    };

    int cost = 0;
    std::map<ValueKey, int> planned;  ///< value -> ready row, this cand
    std::map<int, int> planned_dests; ///< producer -> slots claimed
    for (std::size_t si = 0; si < node.srcs.size(); ++si) {
        const NodeSrc& src = node.srcs[si];
        if (src.kind == NodeSrc::Kind::Const)
            continue;

        // The same value read twice uses one transfer/register.
        auto seen = planned.find(src.value);
        if (seen != planned.end()) {
            earliest = std::max(earliest, seen->second);
            continue;
        }

        auto& locs = locationsOf(src.value);
        auto here = locs.find(cluster);
        if (here != locs.end()) {
            earliest = std::max(earliest, here->second.readyRow);
            continue;
        }

        // A producer with a free destination slot broadcasts here at
        // no schedule cost ("an operation can specify at most two
        // simultaneous register destinations").
        if (!src.value.isImport) {
            const Node& prod = nodes[src.value.defNode];
            const int free_slots = isa::Operation::maxDests -
                static_cast<int>(prod.dests.size()) -
                planned_dests[src.value.defNode];
            if (free_slots > 0) {
                cand.destAdds.push_back(si);
                ++planned_dests[src.value.defNode];
                const int ready =
                    prod.row + fs.latencyOf(isa::unitTypeOf(
                                   prod.instr.op));
                planned[src.value] = ready;
                earliest = std::max(earliest, ready);
                cost += 2;
                continue;
            }
        }

        // Otherwise insert a copy: a MOV on the integer unit of a
        // cluster already holding the value.
        int best_row = kInfeasible;
        Candidate::MovPlan plan;
        for (const auto& [loc_cluster, loc] : locs) {
            const int mov_fu = fs.machine.fuInCluster(
                loc_cluster, isa::UnitType::Integer);
            if (mov_fu < 0)
                continue;
            const int row = first_free(mov_fu, loc.readyRow);
            if (row < best_row) {
                best_row = row;
                plan.srcIndex = si;
                plan.srcCluster = loc_cluster;
                plan.srcReg = loc.reg;
                plan.movRow = row;
                plan.movFu = mov_fu;
            }
        }
        if (best_row >= kInfeasible)
            return cand;  // operand cannot be sourced here
        cand.movs.push_back(plan);
        claimed[plan.movFu].insert(plan.movRow);
        const int ready =
            best_row + fs.latencyOf(isa::UnitType::Integer);
        planned[src.value] = ready;
        earliest = std::max(earliest, ready);
        cost += 6;
    }

    cand.cluster = cluster;
    cand.fu = fu;
    cand.row = firstFreeRow(fu, earliest);
    cand.cost = cand.row * 16 + cost;
    return cand;
}

void
BlockScheduler::commit(int n, const Candidate& cand)
{
    Node& node = nodes[n];
    node.cluster = cand.cluster;
    node.fu = cand.fu;
    node.row = cand.row;
    markBusy(cand.fu, cand.row);

    for (std::size_t si : cand.destAdds) {
        const ValueKey& key = node.srcs[si].value;
        Node& prod = nodes[key.defNode];
        const std::uint32_t reg = fs.newTemp(cand.cluster);
        prod.dests.emplace_back(cand.cluster, reg);
        locationsOf(key)[cand.cluster] = Location{
            reg, prod.row + fs.latencyOf(isa::unitTypeOf(
                                prod.instr.op))};
    }

    for (const auto& plan : cand.movs) {
        const ValueKey& key = node.srcs[plan.srcIndex].value;
        CopyOp copy;
        copy.row = plan.movRow;
        copy.fu = plan.movFu;
        copy.srcCluster = plan.srcCluster;
        copy.srcReg = plan.srcReg;
        copy.dstCluster = cand.cluster;
        copy.dstReg = fs.newTemp(cand.cluster);
        markBusy(plan.movFu, plan.movRow);
        copies.push_back(copy);
        ++fs.copiesInserted;

        locationsOf(key)[cand.cluster] = Location{
            copy.dstReg,
            plan.movRow + fs.latencyOf(isa::UnitType::Integer)};
    }

    if (node.instr.dst != ir::kNoReg && node.writesHome) {
        const auto& [hc, hr] = fs.home.at(node.instr.dst);
        node.dests.emplace_back(hc, hr);
        locationsOf(ValueKey::ofDef(n))[hc] = Location{
            hr, node.row + fs.latencyOf(isa::unitTypeOf(
                               node.instr.op))};
    }
}

void
BlockScheduler::scheduleNode(int n)
{
    Candidate best;
    const isa::UnitType ut = isa::unitTypeOf(nodes[n].instr.op);

    std::vector<int> clusters;
    if (ut == isa::UnitType::Branch)
        clusters = {fs.placement.branchCluster};
    else
        clusters = fs.placement.clusterOrder;

    for (int c : clusters) {
        Candidate cand = evaluate(n, c);
        if (cand.cost < best.cost)
            best = cand;
    }
    if (best.cost >= kInfeasible)
        PROCOUP_PANIC(strCat("no feasible cluster for ",
                             nodes[n].instr.toString(), " in ",
                             fs.func.name));
    commit(n, best);
}

void
BlockScheduler::scheduleAll()
{
    // Most critical first: ready set ordered by descending height.
    std::set<std::pair<int, int>> ready;
    for (std::size_t id = 0; id < nodes.size(); ++id)
        if (nodes[id].predsLeft == 0 && static_cast<int>(id) != termNode)
            ready.insert({-nodes[id].height, static_cast<int>(id)});

    std::size_t scheduled = 0;
    while (!ready.empty()) {
        const auto [negh, id] = *ready.begin();
        ready.erase(ready.begin());
        scheduleNode(id);
        ++scheduled;
        for (int s : nodes[id].succs)
            if (--nodes[s].predsLeft == 0 && s != termNode)
                ready.insert({-nodes[s].height, s});
    }

    // The terminator is the row at which the instruction pointer
    // leaves the block, so it must share or follow the final row.
    if (termNode >= 0) {
        PROCOUP_ASSERT(nodes[termNode].predsLeft == 0,
                       "terminator blocked by unscheduled operations");
        int floor = 0;
        for (const auto& n : nodes)
            if (n.row >= 0)
                floor = std::max(floor, n.row);
        Candidate cand = evaluate(termNode, fs.placement.branchCluster);
        if (cand.cost >= kInfeasible)
            PROCOUP_PANIC(strCat("cannot schedule terminator of ",
                                 fs.func.name));
        cand.row = firstFreeRow(cand.fu, std::max(cand.row, floor));
        commit(termNode, cand);
        ++scheduled;
    }
    PROCOUP_ASSERT(scheduled == nodes.size(),
                   "list scheduling left operations unplaced");
}

// ===================================================================
// Emission
// ===================================================================

std::vector<isa::Instruction>
BlockScheduler::emit()
{
    struct RowOp
    {
        int fu;
        isa::Operation op;
    };
    std::map<int, std::vector<RowOp>> row_ops;

    auto operand_of = [&](const NodeSrc& src, int cluster) {
        if (src.kind == NodeSrc::Kind::Const)
            return isa::Operand::makeImm(src.constVal);
        const auto& locs = locations.at(src.value);
        auto it = locs.find(cluster);
        PROCOUP_ASSERT(it != locs.end(),
                       "operand missing in issuing cluster");
        return isa::Operand::makeReg(isa::RegRef{
            static_cast<std::uint16_t>(cluster),
            static_cast<std::uint16_t>(it->second.reg)});
    };

    for (std::size_t id = 0; id < nodes.size(); ++id) {
        Node& n = nodes[id];
        isa::Operation op;
        op.opcode = n.instr.op;
        op.flavor = n.instr.flavor;
        op.branchTarget =
            static_cast<std::uint32_t>(std::max(n.instr.target, 0));
        op.forkTarget = n.instr.forkTarget;
        op.markId = n.instr.markId;

        for (const auto& src : n.srcs)
            op.srcs.push_back(operand_of(src, n.cluster));

        if (isa::opcodeWritesRegister(op.opcode) && n.dests.empty())
            n.dests.emplace_back(n.cluster, fs.newTemp(n.cluster));
        for (const auto& [c, r] : n.dests)
            op.dsts.push_back(
                isa::RegRef{static_cast<std::uint16_t>(c),
                            static_cast<std::uint16_t>(r)});

        row_ops[n.row].push_back(RowOp{n.fu, std::move(op)});
    }

    for (const auto& copy : copies) {
        isa::Operation op;
        op.opcode = Opcode::MOV;
        op.srcs.push_back(isa::Operand::makeReg(isa::RegRef{
            static_cast<std::uint16_t>(copy.srcCluster),
            static_cast<std::uint16_t>(copy.srcReg)}));
        op.dsts.push_back(isa::RegRef{
            static_cast<std::uint16_t>(copy.dstCluster),
            static_cast<std::uint16_t>(copy.dstReg)});
        row_ops[copy.row].push_back(RowOp{copy.fu, std::move(op)});
    }

    // Compress empty rows: rows encode ordering only — data timing is
    // enforced at runtime by the register presence bits.
    std::vector<isa::Instruction> out;
    for (auto& [row, ops] : row_ops) {
        isa::Instruction inst;
        for (auto& ro : ops) {
            isa::OpSlot slot;
            slot.fu = static_cast<std::uint16_t>(ro.fu);
            slot.op = std::move(ro.op);
            inst.slots.push_back(std::move(slot));
        }
        out.push_back(std::move(inst));
    }
    return out;
}

} // namespace

// ===================================================================
// Public entry point
// ===================================================================

namespace {

/**
 * Peephole: a BR whose target is the immediately following row is a
 * no-op (the instruction pointer falls through row-wise), so drop it;
 * rows left empty are removed and every branch target remapped. Runs
 * to a fixpoint because removals create new fallthrough pairs.
 */
void
elideFallthroughBranches(isa::ThreadCode& code)
{
    bool changed = true;
    while (changed) {
        changed = false;

        // Drop redundant unconditional branches.
        for (std::size_t row = 0; row < code.instructions.size();
             ++row) {
            auto& slots = code.instructions[row].slots;
            for (auto it = slots.begin(); it != slots.end();) {
                if (it->op.opcode == Opcode::BR &&
                        it->op.branchTarget == row + 1) {
                    it = slots.erase(it);
                    changed = true;
                } else {
                    ++it;
                }
            }
        }

        // Remove rows left empty, remapping branch targets.
        std::vector<std::uint32_t> remap(code.instructions.size() + 1);
        std::uint32_t next = 0;
        for (std::size_t row = 0; row < code.instructions.size();
             ++row) {
            remap[row] = next;
            if (!code.instructions[row].slots.empty())
                ++next;
        }
        remap[code.instructions.size()] = next;

        if (next != code.instructions.size()) {
            std::vector<isa::Instruction> kept;
            kept.reserve(next);
            for (auto& inst : code.instructions)
                if (!inst.slots.empty())
                    kept.push_back(std::move(inst));
            code.instructions = std::move(kept);
            for (auto& inst : code.instructions)
                for (auto& slot : inst.slots)
                    if (isa::opcodeIsBranch(slot.op.opcode))
                        slot.op.branchTarget =
                            remap[slot.op.branchTarget];
            changed = true;
        }
    }
}

} // namespace

isa::ThreadCode
scheduleFunction(const ir::ThreadFunc& func,
                 const config::MachineConfig& machine,
                 const FuncPlacement& placement, FuncScheduleInfo* info)
{
    FunctionScheduler fsched(func, machine, placement);

    isa::ThreadCode code;
    code.name = func.name;

    std::vector<int> block_start;
    std::vector<int> block_rows;
    for (const auto& block : func.blocks) {
        BlockScheduler bs(fsched, block);
        auto rows = bs.run();
        block_start.push_back(
            static_cast<int>(code.instructions.size()));
        block_rows.push_back(static_cast<int>(rows.size()));
        for (auto& r : rows)
            code.instructions.push_back(std::move(r));
    }

    // Patch branch targets: block index -> absolute row.
    for (auto& inst : code.instructions)
        for (auto& slot : inst.slots)
            if (isa::opcodeIsBranch(slot.op.opcode))
                slot.op.branchTarget = static_cast<std::uint32_t>(
                    block_start.at(slot.op.branchTarget));

    elideFallthroughBranches(code);

    code.regCount = fsched.regCounter;
    for (std::uint32_t p : func.params) {
        const auto& [c, r] = fsched.home.at(p);
        code.paramHomes.push_back(
            isa::RegRef{static_cast<std::uint16_t>(c),
                        static_cast<std::uint16_t>(r)});
    }

    if (info != nullptr) {
        info->name = func.name;
        info->blockRows = block_rows;
        info->totalRows = static_cast<int>(code.instructions.size());
        int ops = 0;
        for (const auto& i : code.instructions)
            ops += static_cast<int>(i.slots.size());
        info->totalOps = ops;
        info->copiesInserted = fsched.copiesInserted;
        info->regCount = code.regCount;
    }
    return code;
}

} // namespace sched
} // namespace procoup
