/** @file Unit tests for the PCL-to-IR frontend: lowering of every
 *  language construct, macro expansion, unrolling, forall protocol. */

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "procoup/ir/frontend.hh"
#include "procoup/lang/parser.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace {

using ir::Module;
using isa::Opcode;

Module
build(const std::string& src, int clones = 1)
{
    ir::FrontendOptions opts;
    opts.forkClones = clones;
    return ir::buildModule(src, opts);
}

/** Count instructions with a given opcode across a function. */
int
countOps(const ir::ThreadFunc& f, Opcode op)
{
    int n = 0;
    for (const auto& b : f.blocks)
        for (const auto& i : b.instrs)
            if (i.op == op)
                ++n;
    return n;
}

TEST(Frontend, MinimalMain)
{
    const Module m = build("(defun main () 0)");
    ASSERT_EQ(m.funcs.size(), 1u);
    EXPECT_EQ(m.funcs[0].name, "main");
    // Body is a constant; only the ETHR remains.
    EXPECT_EQ(countOps(m.funcs[0], Opcode::ETHR), 1);
}

TEST(Frontend, MissingMainThrows)
{
    EXPECT_THROW(build("(defun f () 0)"), CompileError);
}

TEST(Frontend, GlobalsLayout)
{
    const Module m = build(
        "(defvar x 5)"
        "(defarray a (4) :float)"
        "(defarray b (2 3) :int)"
        "(defun main () 0)");
    ASSERT_EQ(m.globals.size(), 3u);
    EXPECT_EQ(m.findGlobal("x")->size, 1u);
    EXPECT_EQ(m.findGlobal("a")->base, 1u);
    EXPECT_EQ(m.findGlobal("a")->size, 4u);
    EXPECT_EQ(m.findGlobal("b")->base, 5u);
    EXPECT_EQ(m.findGlobal("b")->size, 6u);
    EXPECT_EQ(m.memorySize, 11u);
    EXPECT_EQ(m.findGlobal("b")->elemType, ir::Type::Int);
}

TEST(Frontend, ArrayInitEach)
{
    const Module m = build(
        "(defarray a (4) :init-each (* 1.5 i))"
        "(defun main () 0)");
    const auto& g = *m.findGlobal("a");
    ASSERT_EQ(g.inits.size(), 4u);
    EXPECT_DOUBLE_EQ(g.inits[2].second.asFloat(), 3.0);
}

TEST(Frontend, ArrayInit2DRowCol)
{
    const Module m = build(
        "(defarray a (2 3) :init-each (+ (* 10.0 r) c))"
        "(defun main () 0)");
    const auto& g = *m.findGlobal("a");
    // a[1][2] = 12.0 at linear offset 5.
    EXPECT_DOUBLE_EQ(g.inits[5].second.asFloat(), 12.0);
}

TEST(Frontend, EmptyArraysMarked)
{
    const Module m = build(
        "(defarray q (8) :int :empty)(defun main () 0)");
    EXPECT_TRUE(m.findGlobal("q")->startsEmpty);
}

TEST(Frontend, ArithmeticTypePromotion)
{
    const Module m = build(
        "(defvar out 0.0)"
        "(defun main () (let ((i 3)) (set out (+ 1.5 i))))");
    const auto& f = m.funcs[0];
    // i is int: promoting it needs an ITOF and the add becomes FADD.
    EXPECT_EQ(countOps(f, Opcode::ITOF), 1);
    EXPECT_EQ(countOps(f, Opcode::FADD), 1);
    EXPECT_EQ(countOps(f, Opcode::IADD), 0);
}

TEST(Frontend, ConstantsFoldAtLowering)
{
    const Module m = build(
        "(defvar out 0)"
        "(defun main () (set out (+ 1 (* 2 3))))");
    const auto& f = m.funcs[0];
    EXPECT_EQ(countOps(f, Opcode::IADD), 0);
    EXPECT_EQ(countOps(f, Opcode::IMUL), 0);
}

TEST(Frontend, ArefEmitsIndexArithmetic)
{
    const Module m = build(
        "(defarray a (9 9))"
        "(defvar out 0.0)"
        "(defun main () (let ((i 2) (j 3)) (set out (aref a i j))))");
    const auto& f = m.funcs[0];
    // offset = (0 + i) * 9 + j: one IMUL, one or two IADDs.
    EXPECT_EQ(countOps(f, Opcode::IMUL), 1);
    EXPECT_GE(countOps(f, Opcode::IADD), 1);
    EXPECT_EQ(countOps(f, Opcode::LD), 1);
}

TEST(Frontend, ConstIndicesFoldAway)
{
    const Module m = build(
        "(defarray a (9 9))"
        "(defvar out 0.0)"
        "(defun main () (set out (aref a 2 3)))");
    const auto& f = m.funcs[0];
    EXPECT_EQ(countOps(f, Opcode::IMUL), 0);
    EXPECT_EQ(countOps(f, Opcode::IADD), 0);
}

TEST(Frontend, SyncFlavorsLowered)
{
    const Module m = build(
        "(defarray q (2) :int :empty)"
        "(defvar out 0)"
        "(defun main ()"
        "  (put q 0 5)"
        "  (set out (take q 0))"
        "  (update q 0 7)"
        "  (set out (wait-load q 0)))");
    const auto& f = m.funcs[0];
    std::set<std::string> flavors;
    for (const auto& b : f.blocks)
        for (const auto& i : b.instrs)
            if (i.isMemory())
                flavors.insert(i.flavor.toString());
    EXPECT_TRUE(flavors.count("we/sf"));  // put
    EXPECT_TRUE(flavors.count("wf/se"));  // take
    EXPECT_TRUE(flavors.count("wf/-"));   // update and wait-load
}

TEST(Frontend, WhileBuildsLoopCfg)
{
    const Module m = build(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((i 0))"
        "    (while (< i 10) (set i (+ i 1)))"
        "    (set out i)))");
    const auto& f = m.funcs[0];
    EXPECT_GE(f.blocks.size(), 4u);
    EXPECT_EQ(countOps(f, Opcode::BF), 1);
    EXPECT_GE(countOps(f, Opcode::BR), 2);
    // Terminator invariant: every block ends with one.
    for (const auto& b : f.blocks)
        EXPECT_TRUE(!b.instrs.empty() && b.instrs.back().isTerminator());
}

TEST(Frontend, ForUnrollExpandsBody)
{
    const Module m = build(
        "(defarray a (5))"
        "(defun main ()"
        "  (for (i 0 5 :unroll) (aset a i (float i))))");
    const auto& f = m.funcs[0];
    // Five stores, no loop control.
    EXPECT_EQ(countOps(f, Opcode::ST), 5);
    EXPECT_EQ(countOps(f, Opcode::BF), 0);
    EXPECT_EQ(f.blocks.size(), 1u);
}

TEST(Frontend, NestedUnrollGivesConstantAddresses)
{
    const Module m = build(
        "(defarray a (3 3))"
        "(defun main ()"
        "  (for (i 0 3 :unroll) (for (j 0 3 :unroll)"
        "    (aset a i j 1.0))))");
    const auto& f = m.funcs[0];
    EXPECT_EQ(countOps(f, Opcode::ST), 9);
    EXPECT_EQ(countOps(f, Opcode::IMUL), 0);  // indices folded
}

TEST(Frontend, UnrollRequiresConstantBounds)
{
    EXPECT_THROW(build(
        "(defvar n 5)"
        "(defun main () (for (i 0 n :unroll) 0))"), CompileError);
}

TEST(Frontend, DefunInlinesAtCallSite)
{
    const Module m = build(
        "(defvar out 0)"
        "(defun sq (x) (* x x))"
        "(defun main () (set out (sq (sq 3))))");
    // sq is expanded, not called: no extra function, two IMULs
    // inline (parameters are bound to fresh registers; the constant
    // propagation pass folds them later).
    ASSERT_EQ(m.funcs.size(), 1u);
    const auto& f = m.funcs[0];
    EXPECT_EQ(countOps(f, Opcode::IMUL), 2);
    EXPECT_GE(countOps(f, Opcode::MOV), 1);
}

TEST(Frontend, RecursionRejected)
{
    EXPECT_THROW(build(
        "(defun f (x) (f x))"
        "(defun main () (f 1))"), CompileError);
}

TEST(Frontend, IfWithValue)
{
    const Module m = build(
        "(defvar out 0.0)"
        "(defvar sel 1)"
        "(defun main () (set out (if (< sel 2) 1.5 2.5)))");
    const auto& f = m.funcs[0];
    EXPECT_EQ(countOps(f, Opcode::BF), 1);
    EXPECT_GE(countOps(f, Opcode::MOV), 2);  // both arms write result
}

TEST(Frontend, ForkCreatesThreadFunction)
{
    const Module m = build(
        "(defarray out (4))"
        "(defun worker (i) (aset out i 1.0))"
        "(defun main () (fork (worker 2)))");
    ASSERT_EQ(m.funcs.size(), 2u);
    // main compiled first: entry must point at it.
    EXPECT_EQ(m.funcs[m.entry].name, "main");
    const auto& worker = m.funcs[1 - m.entry];
    EXPECT_EQ(worker.name, "worker");
    EXPECT_EQ(worker.params.size(), 1u);
    EXPECT_EQ(countOps(m.funcs[m.entry], Opcode::FORK), 1);
}

TEST(Frontend, ForkClonesGenerated)
{
    const Module m = build(
        "(defarray out (4))"
        "(defun worker (i) (aset out i 1.0))"
        "(defun main () (fork (worker 2)))", /*clones=*/4);
    // main + 4 clones of worker.
    ASSERT_EQ(m.funcs.size(), 5u);
    std::set<int> clone_ids;
    for (const auto& f : m.funcs)
        if (f.baseName == "worker")
            clone_ids.insert(f.cloneIndex);
    EXPECT_EQ(clone_ids, (std::set<int>{0, 1, 2, 3}));
}

TEST(Frontend, ForallGeneratesJoinProtocol)
{
    const Module m = build(
        "(defarray a (8))"
        "(defun main () (forall (i 0 8) (aset a i (float i))))");
    // main + one child.
    ASSERT_EQ(m.funcs.size(), 2u);
    EXPECT_NE(m.findGlobal("forall0.counter"), nullptr);
    ASSERT_NE(m.findGlobal("forall0.done"), nullptr);
    EXPECT_TRUE(m.findGlobal("forall0.done")->startsEmpty);

    const auto& main_fn = m.funcs[m.entry];
    const auto& child = m.funcs[1 - m.entry];
    // Constant trip count: one straight-line FORK per instance.
    EXPECT_EQ(countOps(main_fn, Opcode::FORK), 8);
    // Parent waits with a consume-load on the done cell.
    int consume_loads = 0;
    for (const auto& b : main_fn.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::LD &&
                    i.flavor == isa::MemFlavor::consumeLoad())
                ++consume_loads;
    EXPECT_EQ(consume_loads, 1);
    // Child decrements the counter (take + store) and fills done.
    EXPECT_GE(countOps(child, Opcode::ST), 2);
    EXPECT_EQ(child.params.size(), 1u);  // just the index
}

TEST(Frontend, ForallCapturesFreeVariables)
{
    const Module m = build(
        "(defarray a (8 8))"
        "(defun main ()"
        "  (let ((k 3))"
        "    (forall (i 0 8) (aset a k i 2.0))))");
    const auto& child = m.funcs[1 - m.entry];
    EXPECT_EQ(child.params.size(), 2u);  // k and i
}

TEST(Frontend, ForallTooManyCapturesRejected)
{
    EXPECT_THROW(build(
        "(defarray a (8))"
        "(defun main ()"
        "  (let ((x 1) (y 2) (z 3))"
        "    (forall (i 0 8) (aset a i (float (+ x y z i))))))"),
        CompileError);
}

TEST(Frontend, MarkLowered)
{
    const Module m = build("(defun main () (mark 42))");
    const auto& f = m.funcs[0];
    bool found = false;
    for (const auto& b : f.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::MARK && i.markId == 42)
                found = true;
    EXPECT_TRUE(found);
}

TEST(Frontend, ConstExprEvaluator)
{
    using ir::evalConstExpr;
    const auto forms = lang::parse("(+ 1 (* 2 3)) (cos 0.0) (min 4 2 9)");
    EXPECT_EQ(evalConstExpr(forms[0], {}).asInt(), 7);
    EXPECT_DOUBLE_EQ(evalConstExpr(forms[1], {}).asFloat(), 1.0);
    EXPECT_EQ(evalConstExpr(forms[2], {}).asInt(), 2);
    const auto bound = lang::parse("(* i 2)");
    EXPECT_EQ(
        evalConstExpr(bound[0], {{"i", isa::Value::makeInt(5)}}).asInt(),
        10);
    EXPECT_THROW(evalConstExpr(bound[0], {}), CompileError);
    // abs wraps like unary minus; a function needs its operand; an if
    // condition is an integer, as in compiled code.
    const auto edge =
        lang::parse("(abs -9223372036854775808) (sin) (if 0.5 1 2)");
    EXPECT_EQ(evalConstExpr(edge[0], {}).asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_THROW(evalConstExpr(edge[1], {}), CompileError);
    EXPECT_THROW(evalConstExpr(edge[2], {}), CompileError);
}

TEST(Frontend, UnknownVariableRejected)
{
    EXPECT_THROW(build("(defun main () (set nope 1))"), CompileError);
    EXPECT_THROW(build("(defun main () nope)"), CompileError);
}

TEST(Frontend, FloatToIntNeedsExplicitCast)
{
    EXPECT_THROW(build(
        "(defvar out 0)"
        "(defun main () (set out 1.5))"), CompileError);
    EXPECT_NO_THROW(build(
        "(defvar out 0)"
        "(defun main () (set out (int 1.5)))"));
}

} // namespace
} // namespace procoup
