#include "procoup/ir/ir.hh"

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace ir {

std::string
typeName(Type t)
{
    return t == Type::Int ? "int" : "float";
}

IrValue
IrValue::makeReg(std::uint32_t r)
{
    IrValue v;
    v._kind = Kind::Reg;
    v._reg = r;
    return v;
}

IrValue
IrValue::makeConst(isa::Value c)
{
    IrValue v;
    v._kind = Kind::Const;
    v._const = c;
    return v;
}

IrValue
IrValue::makeInt(std::int64_t i)
{
    return makeConst(isa::Value::makeInt(i));
}

IrValue
IrValue::makeFloat(double f)
{
    return makeConst(isa::Value::makeFloat(f));
}

std::uint32_t
IrValue::reg() const
{
    PROCOUP_ASSERT(_kind == Kind::Reg, "IrValue is not a register");
    return _reg;
}

const isa::Value&
IrValue::constant() const
{
    PROCOUP_ASSERT(_kind == Kind::Const, "IrValue is not a constant");
    return _const;
}

std::string
IrValue::toString() const
{
    switch (_kind) {
      case Kind::None:  return "<none>";
      case Kind::Reg:   return strCat("v", _reg);
      case Kind::Const: return strCat("#", _const.toString());
    }
    PROCOUP_PANIC("bad IrValue kind");
}

bool
IrInstr::isTerminator() const
{
    return isa::opcodeIsBranch(op) || op == isa::Opcode::ETHR;
}

bool
IrInstr::isSyncMemory() const
{
    if (op == isa::Opcode::LD)
        return !(flavor == isa::MemFlavor::plainLoad());
    if (op == isa::Opcode::ST)
        return !(flavor == isa::MemFlavor::plainStore());
    return false;
}

std::string
IrInstr::toString() const
{
    std::string s = isa::opcodeName(op);
    if (isMemory())
        s += strCat(".", flavor.toString(), " [", memSym, "]");
    bool first = true;
    if (dst != kNoReg) {
        s += strCat(" v", dst);
        first = false;
    }
    for (const auto& src : srcs) {
        s += first ? " " : ", ";
        s += src.toString();
        first = false;
    }
    if (isa::opcodeIsBranch(op))
        s += strCat(" ->bb", target);
    if (op == isa::Opcode::FORK)
        s += strCat(" fn", forkTarget);
    if (op == isa::Opcode::MARK)
        s += strCat(" m", markId);
    return s;
}

const IrInstr&
BasicBlock::terminator() const
{
    PROCOUP_ASSERT(!instrs.empty() && instrs.back().isTerminator(),
                   "block without terminator");
    return instrs.back();
}

std::string
BasicBlock::toString() const
{
    std::string s;
    for (const auto& i : instrs)
        s += strCat("    ", i.toString(), "\n");
    return s;
}

std::uint32_t
ThreadFunc::newReg(Type t)
{
    regTypes.push_back(t);
    return static_cast<std::uint32_t>(regTypes.size() - 1);
}

Type
ThreadFunc::regType(std::uint32_t r) const
{
    PROCOUP_ASSERT(r < regTypes.size(), "vreg out of range");
    return regTypes[r];
}

std::vector<int>
ThreadFunc::successors(int b) const
{
    PROCOUP_ASSERT(b >= 0 && b < static_cast<int>(blocks.size()),
                   "block index out of range");
    const IrInstr& t = blocks[b].terminator();
    std::vector<int> out;
    switch (t.op) {
      case isa::Opcode::BR:
        out.push_back(t.target);
        break;
      case isa::Opcode::BT:
      case isa::Opcode::BF:
        out.push_back(t.target);
        if (b + 1 < static_cast<int>(blocks.size()))
            out.push_back(b + 1);
        break;
      case isa::Opcode::ETHR:
        break;
      default:
        PROCOUP_PANIC("bad terminator");
    }
    return out;
}

std::string
ThreadFunc::toString() const
{
    std::string s = strCat("func ", name, " (");
    for (std::size_t i = 0; i < params.size(); ++i)
        s += strCat(i ? " " : "", "v", params[i]);
    s += ")\n";
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        s += strCat("  bb", b, ":\n", blocks[b].toString());
    }
    return s;
}

const Global*
Module::findGlobal(const std::string& name) const
{
    for (const auto& g : globals)
        if (g.name == name)
            return &g;
    return nullptr;
}

Global&
Module::addGlobal(Global g)
{
    PROCOUP_ASSERT(findGlobal(g.name) == nullptr,
                   strCat("duplicate global: ", g.name));
    g.base = memorySize;
    std::uint32_t size = 1;
    for (auto d : g.dims)
        size *= d;
    g.size = size;
    memorySize += size;
    globals.push_back(std::move(g));
    return globals.back();
}

std::string
Module::toString() const
{
    std::string s;
    for (const auto& g : globals)
        s += strCat("global ", g.name, " @", g.base, " size ", g.size,
                    g.startsEmpty ? " (empty)" : "", "\n");
    for (const auto& f : funcs)
        s += f.toString();
    return s;
}

} // namespace ir
} // namespace procoup
