#ifndef PROCOUP_ISA_ALU_HH
#define PROCOUP_ISA_ALU_HH

/**
 * @file
 * Functional semantics of the integer and floating point operations:
 * the one definition of what an operation computes. The simulator
 * executes through evalAlu, and every compile-time constant fold (the
 * frontend's and the optimizer's) goes through foldAlu, so folding and
 * running agree. Simulation is "at a functional level rather than at a
 * register transfer level" (paper, Section 3): values are computed
 * exactly, and timing is handled by the surrounding pipeline model.
 */

#include <initializer_list>
#include <optional>
#include <span>

#include "procoup/isa/opcode.hh"
#include "procoup/isa/value.hh"

namespace procoup {
namespace isa {

/**
 * Evaluate an IU/FPU operation over resolved source values.
 *
 * Taking a span (rather than a concrete container) lets the simulator
 * pass its inline source buffer without copying.
 *
 * @param op     an integer- or float-unit opcode that writes a register
 * @param srcs   source values, in operand order
 * @return the result word
 * @throws SimError on integer division/modulo by zero
 */
Value evalAlu(Opcode op, std::span<const Value> srcs);

/** Braced-list convenience (tests, constant folding). */
inline Value
evalAlu(Opcode op, std::initializer_list<Value> srcs)
{
    return evalAlu(op, std::span<const Value>(srcs.begin(), srcs.size()));
}

/**
 * The compiler's static evaluation of an operation with constant
 * operands: evalAlu, except that an integer division or modulo by
 * zero is not folded (nullopt) so that it still traps at run time.
 */
std::optional<Value> foldAlu(Opcode op, std::span<const Value> srcs);

inline std::optional<Value>
foldAlu(Opcode op, std::initializer_list<Value> srcs)
{
    return foldAlu(op, std::span<const Value>(srcs.begin(), srcs.size()));
}

} // namespace isa
} // namespace procoup

#endif // PROCOUP_ISA_ALU_HH
