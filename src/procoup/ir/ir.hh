#ifndef PROCOUP_IR_IR_HH
#define PROCOUP_IR_IR_HH

/**
 * @file
 * Compiler intermediate representation.
 *
 * Three-address code over an unbounded set of virtual registers (the
 * paper's compiler "does not perform register allocation, assuming
 * that an infinite number of registers are available"). A module holds
 * one function per thread body; control flow is basic blocks whose
 * last instruction is always a terminator (BR/BT/BF/ETHR). A BT/BF
 * falls through to the next block in layout order when not taken.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "procoup/isa/opcode.hh"
#include "procoup/isa/operation.hh"
#include "procoup/isa/value.hh"

namespace procoup {
namespace ir {

/** Value types of the source language. */
enum class Type { Int, Float };

std::string typeName(Type t);

/** Sentinel for "no destination register". */
constexpr std::uint32_t kNoReg = 0xffffffff;

/** An operand: a virtual register or a constant. */
class IrValue
{
  public:
    enum class Kind { None, Reg, Const };

    IrValue() : _kind(Kind::None) {}

    static IrValue makeReg(std::uint32_t r);
    static IrValue makeConst(isa::Value v);
    static IrValue makeInt(std::int64_t v);
    static IrValue makeFloat(double v);

    Kind kind() const { return _kind; }
    bool isReg() const { return _kind == Kind::Reg; }
    bool isConst() const { return _kind == Kind::Const; }
    bool isNone() const { return _kind == Kind::None; }

    std::uint32_t reg() const;
    const isa::Value& constant() const;

    std::string toString() const;

  private:
    Kind _kind;
    std::uint32_t _reg = kNoReg;
    isa::Value _const;
};

/** One IR instruction. Opcodes reuse the machine opcode set; branches
 *  target basic-block indices rather than instruction rows. */
struct IrInstr
{
    isa::Opcode op = isa::Opcode::NOP;

    /** Destination virtual register, or kNoReg. */
    std::uint32_t dst = kNoReg;

    /** Sources (LD: base, offset; ST: base, offset, value). */
    std::vector<IrValue> srcs;

    /** Presence-bit flavor for LD/ST. */
    isa::MemFlavor flavor;

    /** BR/BT/BF: taken-target block index (-1 = unpatched). */
    int target = -1;

    /** FORK: callee function index within the module. */
    std::uint32_t forkTarget = 0;

    /** MARK id. */
    std::int64_t markId = 0;

    /** LD/ST alias information: the array/scalar symbol accessed, or
     *  empty when unknown (treated as possibly aliasing everything). */
    std::string memSym;

    bool isTerminator() const;
    bool isMemory() const { return isa::opcodeIsMemory(op); }

    /** An LD/ST with a synchronizing flavor: anything but Table 1's
     *  plain load or plain store. Orders against every other memory
     *  reference (optimizer and scheduler alike). */
    bool isSyncMemory() const;

    std::string toString() const;
};

/** A basic block: straight-line code ending in one terminator. */
struct BasicBlock
{
    std::vector<IrInstr> instrs;

    const IrInstr& terminator() const;

    std::string toString() const;
};

/** One thread function. */
struct ThreadFunc
{
    std::string name;

    /** Clone bookkeeping for static load balancing: clones share
     *  baseName and differ in cloneIndex (scheduled onto different
     *  clusters / cluster orders). */
    std::string baseName;
    int cloneIndex = 0;

    /** Types of all virtual registers (index = vreg id). */
    std::vector<Type> regTypes;

    /** Parameter vregs, in FORK argument order. */
    std::vector<std::uint32_t> params;

    /** Blocks in layout order; entry is block 0. */
    std::vector<BasicBlock> blocks;

    std::uint32_t newReg(Type t);
    Type regType(std::uint32_t r) const;

    /** Successor block indices of block @p b (taken target first). */
    std::vector<int> successors(int b) const;

    std::string toString() const;
};

/** A module-level data object (array or scalar) in node memory. */
struct Global
{
    std::string name;
    std::uint32_t base = 0;
    std::vector<std::uint32_t> dims;  ///< empty = scalar
    std::uint32_t size = 1;

    /** Element type (loads of this object produce this type). */
    Type elemType = Type::Int;

    /** Initial values (offset, value); words default to int 0. */
    std::vector<std::pair<std::uint32_t, isa::Value>> inits;

    /** All words start empty (synchronization cells). */
    bool startsEmpty = false;
};

/** A whole program in IR form. */
struct Module
{
    std::vector<ThreadFunc> funcs;
    std::uint32_t entry = 0;

    std::vector<Global> globals;
    std::uint32_t memorySize = 0;

    const Global* findGlobal(const std::string& name) const;
    Global& addGlobal(Global g);

    std::string toString() const;
};

} // namespace ir
} // namespace procoup

#endif // PROCOUP_IR_IR_HH
