#include "procoup/opt/passes.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>

#include "procoup/isa/alu.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace opt {

using ir::IrInstr;
using ir::IrValue;
using ir::ThreadFunc;
using isa::Opcode;
using isa::Value;

namespace {

/** Number of definitions of each vreg in the function. */
std::vector<int>
defCounts(const ThreadFunc& func)
{
    std::vector<int> counts(func.regTypes.size(), 0);
    for (std::uint32_t p : func.params)
        ++counts[p];
    for (const auto& b : func.blocks)
        for (const auto& i : b.instrs)
            if (i.dst != ir::kNoReg)
                ++counts[i.dst];
    return counts;
}

/** True for operations free of side effects whose value is a pure
 *  function of the sources (removable / CSE-able). */
bool
isPureAlu(const IrInstr& i)
{
    if (i.dst == ir::kNoReg || i.isMemory())
        return false;
    switch (i.op) {
      case Opcode::MARK: case Opcode::FORK: case Opcode::ETHR:
      case Opcode::BR: case Opcode::BT: case Opcode::BF:
      case Opcode::NOP:
        return false;
      default:
        return true;
    }
}

/** A plain (non-synchronizing) load. */
bool
isPlainLoad(const IrInstr& i)
{
    return i.op == Opcode::LD && !i.isSyncMemory();
}

/** Try to evaluate a pure op whose sources are all constants. */
std::optional<Value>
foldInstr(const IrInstr& i)
{
    std::vector<Value> srcs;
    for (const auto& s : i.srcs) {
        if (!s.isConst())
            return std::nullopt;
        srcs.push_back(s.constant());
    }
    return isa::foldAlu(i.op, srcs);
}

/** What a CSE candidate computes: its opcode, its sources (registers
 *  by id, constants by tag and exact bits) and, for a load, the symbol
 *  and flavor. Two instructions with equal keys compute equal values
 *  while no source is redefined (and, for loads, no store aliases). */
struct ExprKey
{
    /** (0, vreg), (1, integer bits) or (2, double bits). */
    using Src = std::pair<int, std::uint64_t>;

    Opcode op;
    std::vector<Src> srcs;
    std::string sym;
    isa::MemPre pre;
    isa::MemPost post;

    explicit ExprKey(const IrInstr& i)
        : op(i.op), sym(i.memSym), pre(i.flavor.pre), post(i.flavor.post)
    {
        for (const auto& s : i.srcs) {
            if (s.isReg()) {
                srcs.emplace_back(0, s.reg());
                continue;
            }
            const Value& c = s.constant();
            srcs.push_back(c.isFloat()
                ? Src{2, std::bit_cast<std::uint64_t>(c.rawFloat())}
                : Src{1, static_cast<std::uint64_t>(c.rawInt())});
        }
    }

    bool
    reads(std::uint32_t reg) const
    {
        return std::find(srcs.begin(), srcs.end(), Src{0, reg}) !=
               srcs.end();
    }

    auto operator<=>(const ExprKey&) const = default;
};

} // namespace

bool
constantPropagation(ThreadFunc& func)
{
    const auto defs = defCounts(func);

    // Single-definition registers holding constants are constant
    // everywhere (the frontend emits structured code: a single def
    // dominates every use).
    std::map<std::uint32_t, Value> global_const;
    for (const auto& b : func.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::MOV && i.dst != ir::kNoReg &&
                    defs[i.dst] == 1 && i.srcs[0].isConst())
                global_const.emplace(i.dst, i.srcs[0].constant());

    bool changed = false;
    for (auto& b : func.blocks) {
        std::map<std::uint32_t, Value> local;
        for (auto& i : b.instrs) {
            // Substitute known constants into sources.
            for (auto& s : i.srcs) {
                if (!s.isReg())
                    continue;
                auto lit = local.find(s.reg());
                if (lit != local.end()) {
                    s = IrValue::makeConst(lit->second);
                    changed = true;
                    continue;
                }
                auto git = global_const.find(s.reg());
                if (git != global_const.end()) {
                    s = IrValue::makeConst(git->second);
                    changed = true;
                }
            }

            // Static evaluation of pure ops with constant operands.
            if (isPureAlu(i) && i.op != Opcode::MOV) {
                if (auto v = foldInstr(i)) {
                    i.op = Opcode::MOV;
                    i.srcs = {IrValue::makeConst(*v)};
                    changed = true;
                }
            }

            if (i.dst != ir::kNoReg) {
                local.erase(i.dst);
                if (i.op == Opcode::MOV && i.srcs[0].isConst())
                    local.emplace(i.dst, i.srcs[0].constant());
            }
        }
    }
    return changed;
}

bool
copyPropagation(ThreadFunc& func)
{
    const auto defs = defCounts(func);

    // Function-wide copies: MOV dst <- src where both are defined
    // exactly once; dst is then an alias of src everywhere.
    std::map<std::uint32_t, std::uint32_t> alias;
    for (const auto& b : func.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::MOV && i.dst != ir::kNoReg &&
                    i.srcs[0].isReg() && defs[i.dst] == 1 &&
                    defs[i.srcs[0].reg()] == 1 &&
                    func.regType(i.dst) ==
                        func.regType(i.srcs[0].reg()))
                alias[i.dst] = i.srcs[0].reg();

    auto resolve = [&](std::uint32_t r) {
        // Follow chains (a = b, b = c); cycles cannot occur in
        // single-def copies.
        while (true) {
            auto it = alias.find(r);
            if (it == alias.end())
                return r;
            r = it->second;
        }
    };

    bool changed = false;
    for (auto& b : func.blocks) {
        // Block-local copy environment for multi-def registers.
        std::map<std::uint32_t, std::uint32_t> local;
        for (auto& i : b.instrs) {
            for (auto& s : i.srcs) {
                if (!s.isReg())
                    continue;
                std::uint32_t r = s.reg();
                auto lit = local.find(r);
                if (lit != local.end())
                    r = lit->second;
                r = resolve(r);
                if (r != s.reg()) {
                    s = IrValue::makeReg(r);
                    changed = true;
                }
            }

            if (i.dst != ir::kNoReg) {
                // Kill copies reading or defining the overwritten reg.
                for (auto it = local.begin(); it != local.end();) {
                    if (it->first == i.dst || it->second == i.dst)
                        it = local.erase(it);
                    else
                        ++it;
                }
                if (i.op == Opcode::MOV && i.srcs[0].isReg() &&
                        i.srcs[0].reg() != i.dst &&
                        func.regType(i.dst) ==
                            func.regType(i.srcs[0].reg()))
                    local[i.dst] = i.srcs[0].reg();
            }
        }
    }
    return changed;
}

bool
commonSubexpressionElimination(ThreadFunc& func)
{
    bool changed = false;

    for (auto& b : func.blocks) {
        // Available expressions: key -> defining vreg.
        std::map<ExprKey, std::uint32_t> avail;

        // Forget the loads a store to @p sym may read ("" = any).
        auto kill_loads = [&](const std::string& sym) {
            std::erase_if(avail, [&](const auto& e) {
                const ExprKey& k = e.first;
                return k.op == Opcode::LD &&
                       (sym.empty() || k.sym.empty() || k.sym == sym);
            });
        };

        for (auto& i : b.instrs) {
            std::optional<ExprKey> key;
            if ((isPureAlu(i) && i.op != Opcode::MOV) || isPlainLoad(i))
                key.emplace(i);

            bool rewritten = false;
            if (key) {
                auto it = avail.find(*key);
                if (it != avail.end() &&
                        func.regType(it->second) == func.regType(i.dst)) {
                    // Duplicate: rewrite as a copy of the prior result.
                    i.op = Opcode::MOV;
                    i.srcs = {IrValue::makeReg(it->second)};
                    i.memSym.clear();
                    i.flavor = isa::MemFlavor();
                    changed = true;
                    rewritten = true;
                }
            }

            // Invalidation rules.
            if (i.op == Opcode::ST)
                kill_loads(i.isSyncMemory() ? "" : i.memSym);
            else if (i.op == Opcode::FORK ||
                     (i.op == Opcode::LD && i.isSyncMemory()))
                kill_loads("");

            // Redefinition kills expressions reading the old value and
            // the expression that defined it.
            if (i.dst != ir::kNoReg)
                std::erase_if(avail, [&](const auto& e) {
                    return e.second == i.dst || e.first.reads(i.dst);
                });

            // Make the (surviving) expression available, unless it
            // consumes the register it defines (x = x * x).
            if (key && !rewritten && !key->reads(i.dst))
                avail[*key] = i.dst;
        }
    }
    return changed;
}

bool
deadCodeElimination(ThreadFunc& func)
{
    bool changed = false;
    bool again = true;
    while (again) {
        again = false;
        std::vector<bool> used(func.regTypes.size(), false);
        for (const auto& b : func.blocks)
            for (const auto& i : b.instrs)
                for (const auto& s : i.srcs)
                    if (s.isReg())
                        used[s.reg()] = true;

        for (auto& b : func.blocks) {
            auto& ins = b.instrs;
            for (auto it = ins.begin(); it != ins.end();) {
                const bool removable =
                    (isPureAlu(*it) || isPlainLoad(*it)) &&
                    it->dst != ir::kNoReg && !used[it->dst];
                if (removable) {
                    it = ins.erase(it);
                    changed = again = true;
                } else {
                    ++it;
                }
            }
        }
    }
    return changed;
}

void
optimize(ir::Module& mod)
{
    for (auto& f : mod.funcs) {
        for (int round = 0; round < 16; ++round) {
            bool changed = false;
            changed |= constantPropagation(f);
            changed |= copyPropagation(f);
            changed |= commonSubexpressionElimination(f);
            changed |= deadCodeElimination(f);
            if (!changed)
                break;
        }
    }
}

} // namespace opt
} // namespace procoup
