#include "procoup/isa/alu.hh"

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace isa {

namespace {

Value
intBin(Opcode op, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case Opcode::IADD: return Value::makeInt(wrapAdd(a, b));
      case Opcode::ISUB: return Value::makeInt(wrapSub(a, b));
      case Opcode::IMUL: return Value::makeInt(wrapMul(a, b));
      case Opcode::IDIV:
        if (b == 0)
            throw SimError("integer division by zero");
        return Value::makeInt(wrapDiv(a, b));
      case Opcode::IMOD:
        if (b == 0)
            throw SimError("integer modulo by zero");
        return Value::makeInt(wrapMod(a, b));
      case Opcode::IAND: return Value::makeInt(a & b);
      case Opcode::IOR:  return Value::makeInt(a | b);
      case Opcode::IXOR: return Value::makeInt(a ^ b);
      case Opcode::ISHL: return Value::makeInt(wrapShl(a, b));
      case Opcode::ISHR: return Value::makeInt(a >> (b & 63));
      case Opcode::ILT:  return Value::makeInt(a < b);
      case Opcode::ILE:  return Value::makeInt(a <= b);
      case Opcode::IEQ:  return Value::makeInt(a == b);
      case Opcode::INE:  return Value::makeInt(a != b);
      case Opcode::IGT:  return Value::makeInt(a > b);
      case Opcode::IGE:  return Value::makeInt(a >= b);
      default:
        PROCOUP_PANIC(strCat("not an integer binop: ",
                             opcodeName(op)));
    }
}

Value
floatBin(Opcode op, double a, double b)
{
    switch (op) {
      case Opcode::FADD: return Value::makeFloat(a + b);
      case Opcode::FSUB: return Value::makeFloat(a - b);
      case Opcode::FMUL: return Value::makeFloat(a * b);
      case Opcode::FDIV: return Value::makeFloat(a / b);
      case Opcode::FLT:  return Value::makeInt(a < b);
      case Opcode::FLE:  return Value::makeInt(a <= b);
      case Opcode::FEQ:  return Value::makeInt(a == b);
      case Opcode::FNE:  return Value::makeInt(a != b);
      case Opcode::FGT:  return Value::makeInt(a > b);
      case Opcode::FGE:  return Value::makeInt(a >= b);
      default:
        PROCOUP_PANIC(strCat("not a float binop: ", opcodeName(op)));
    }
}

} // namespace

Value
evalAlu(Opcode op, std::span<const Value> srcs)
{
    auto arg = [&](std::size_t i) -> const Value& {
        PROCOUP_ASSERT(i < srcs.size(), "ALU operand count mismatch");
        return srcs[i];
    };
    switch (op) {
      case Opcode::INEG:
        return Value::makeInt(wrapNeg(arg(0).asInt()));
      case Opcode::INOT:
        return Value::makeInt(arg(0).asInt() == 0);
      case Opcode::FNEG:
        return Value::makeFloat(-arg(0).asFloat());
      case Opcode::ITOF:
        return Value::makeFloat(static_cast<double>(arg(0).asInt()));
      case Opcode::FTOI:
        return Value::makeInt(truncToInt(arg(0).asFloat()));
      case Opcode::MOV:
      case Opcode::FMOV:
        return arg(0);
      default:
        break;
    }

    const Value& a = arg(0);
    const Value& b = arg(1);
    if (unitTypeOf(op) == UnitType::Integer)
        return intBin(op, a.asInt(), b.asInt());
    return floatBin(op, a.asFloat(), b.asFloat());
}

std::optional<Value>
foldAlu(Opcode op, std::span<const Value> srcs)
{
    if ((op == Opcode::IDIV || op == Opcode::IMOD) && srcs.size() == 2 &&
            srcs[1].asInt() == 0)
        return std::nullopt;  // keep the runtime trap
    return evalAlu(op, srcs);
}

} // namespace isa
} // namespace procoup
