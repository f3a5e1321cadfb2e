/** @file Unit tests for the optimization passes and liveness. */

#include <gtest/gtest.h>

#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/opt/liveness.hh"
#include "procoup/opt/passes.hh"

namespace procoup {
namespace {

using ir::Module;
using isa::Opcode;

Module
build(const std::string& src)
{
    return ir::buildModule(src);
}

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

int
totalOps(const ir::ThreadFunc& f)
{
    int n = 0;
    for (const auto& b : f.blocks)
        n += static_cast<int>(b.instrs.size());
    return n;
}

TEST(Opt, ConstantPropagationFoldsInlinedCalls)
{
    Module m = build(
        "(defvar out 0)"
        "(defun sq (x) (* x x))"
        "(defun main () (set out (sq (sq 3))))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    // (sq (sq 3)) = 81 entirely at compile time.
    EXPECT_EQ(countOps(f, Opcode::IMUL), 0);
    EXPECT_EQ(countOps(f, Opcode::MOV), 0);
    // Just the store of 81 and the ETHR remain.
    EXPECT_EQ(totalOps(f), 2);
    bool store81 = false;
    for (const auto& i : f.blocks[0].instrs)
        if (i.op == Opcode::ST && i.srcs[2].isConst() &&
                i.srcs[2].constant().asInt() == 81)
            store81 = true;
    EXPECT_TRUE(store81);
}

TEST(Opt, CopyPropagationShortensMovChains)
{
    // Chained lets aliasing one loaded value collapse to direct use.
    Module m2 = build(
        "(defarray src (1))"
        "(defvar out 0.0)"
        "(defun main ()"
        "  (let ((a (aref src 0)))"
        "    (let ((b a))"
        "      (let ((c b))"
        "        (set out c)))))");
    opt::optimize(m2);
    const auto& f = m2.funcs[0];
    EXPECT_EQ(countOps(f, Opcode::MOV), 0);
    EXPECT_EQ(countOps(f, Opcode::LD), 1);
    EXPECT_EQ(countOps(f, Opcode::ST), 1);
}

TEST(Opt, CseMergesRedundantIndexArithmetic)
{
    Module m = build(
        "(defarray a (9 9))"
        "(defvar out 0.0)"
        "(defvar i 2)"
        "(defvar j 3)"
        "(defun main ()"
        "  (let ((x (aref a i j)) (y (aref a i j)))"
        "    (set out (+ x y))))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    // The i*9+j arithmetic is computed once...
    EXPECT_EQ(countOps(f, Opcode::IMUL), 1);
    // ...and the two equal plain loads collapse into one.
    // (Loads of i and j themselves: 2 more loads.)
    EXPECT_EQ(countOps(f, Opcode::LD), 3);
}

TEST(Opt, CseDoesNotMergeLoadsAcrossAliasingStore)
{
    Module m = build(
        "(defarray a (4))"
        "(defvar out 0.0)"
        "(defvar k 1)"
        "(defun main ()"
        "  (let ((x (aref a 0)))"
        "    (aset a k 5.0)"          // may alias a[0]
        "    (let ((y (aref a 0)))"
        "      (set out (+ x y)))))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    int loads_of_a = 0;
    for (const auto& b : f.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::LD && i.memSym == "a")
                ++loads_of_a;
    EXPECT_EQ(loads_of_a, 2);
}

TEST(Opt, CseMergesLoadsAcrossDistinctArrayStore)
{
    Module m = build(
        "(defarray a (4))"
        "(defarray b (4))"
        "(defvar out 0.0)"
        "(defun main ()"
        "  (let ((x (aref a 0)))"
        "    (aset b 1 5.0)"          // different array: no alias
        "    (let ((y (aref a 0)))"
        "      (set out (+ x y)))))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    int loads_of_a = 0;
    for (const auto& b : f.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::LD && i.memSym == "a")
                ++loads_of_a;
    EXPECT_EQ(loads_of_a, 1);
}

TEST(Opt, CseStopsAtSynchronizingReference)
{
    Module m = build(
        "(defarray a (4))"
        "(defarray q (1) :int :empty)"
        "(defvar out 0.0)"
        "(defun main ()"
        "  (let ((x (aref a 0)))"
        "    (put q 0 1)"             // sync reference: full barrier
        "    (let ((y (aref a 0)))"
        "      (set out (+ x y)))))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    int loads_of_a = 0;
    for (const auto& b : f.blocks)
        for (const auto& i : b.instrs)
            if (i.op == Opcode::LD && i.memSym == "a")
                ++loads_of_a;
    EXPECT_EQ(loads_of_a, 2);
}

TEST(Opt, CseKeepsNearbyFloatConstantsApart)
{
    // The two constants agree in their first six digits; an expression
    // key built from printed text would merge the two fadds.
    const std::string src =
        "(defvar a 0.5)(defvar d 0.0)"
        "(defun main ()"
        "  (set d (* 10000000.0 (- (+ a 0.1000002) (+ a 0.1000001)))))";
    Module m = build(src);
    opt::optimize(m);
    EXPECT_EQ(countOps(m.funcs[0], Opcode::FADD), 2);

    const core::CoupledNode node(config::baseline());
    const auto r = node.runSource(src, core::SimMode::Coupled);
    EXPECT_NEAR(r.value("d"), 1.0, 1e-6);
}

TEST(Opt, DceRemovesUnusedComputation)
{
    Module m = build(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((unused (* 3 4)) (kept 7))"
        "    (set out kept)))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    EXPECT_EQ(countOps(f, Opcode::IMUL), 0);
    // Store of the constant 7 remains.
    EXPECT_EQ(countOps(f, Opcode::ST), 1);
}

TEST(Opt, DceKeepsSynchronizingLoads)
{
    Module m = build(
        "(defarray q (1) :int :empty)"
        "(defun main ()"
        "  (take q 0) 0)");  // result unused but has a side effect
    opt::optimize(m);
    EXPECT_EQ(countOps(m.funcs[0], Opcode::LD), 1);
}

TEST(Opt, DceRemovesUnusedPlainLoads)
{
    Module m = build(
        "(defarray a (1))"
        "(defun main () (aref a 0) 0)");
    opt::optimize(m);
    EXPECT_EQ(countOps(m.funcs[0], Opcode::LD), 0);
}

TEST(Opt, LoopCodeSurvivesOptimization)
{
    Module m = build(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((s 0))"
        "    (for (i 0 10) (set s (+ s i)))"
        "    (set out s)))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    // The loop-carried adds cannot be folded.
    EXPECT_GE(countOps(f, Opcode::IADD), 2);  // s+i and i+1
    EXPECT_EQ(countOps(f, Opcode::BF), 1);
}

TEST(Opt, LivenessFlagsLoopVariablesAsCrossBlock)
{
    Module m = build(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((s 0))"
        "    (for (i 0 10) (set s (+ s i)))"
        "    (set out s)))");
    opt::optimize(m);
    const auto& f = m.funcs[0];
    const auto live = opt::computeLiveness(f);
    const auto cross = opt::crossBlockRegs(f, live);
    int cross_count = 0;
    for (bool c : cross)
        if (c)
            ++cross_count;
    // At least s, i, and the loop bound cross block boundaries.
    EXPECT_GE(cross_count, 2);
}

TEST(Opt, LivenessPureStraightLine)
{
    Module m = build(
        "(defvar out 0)"
        "(defun main () (let ((a 1)) (set out a)))");
    const auto& f = m.funcs[0];
    const auto live = opt::computeLiveness(f);
    const auto cross = opt::crossBlockRegs(f, live);
    for (std::size_t r = 0; r < cross.size(); ++r)
        EXPECT_FALSE(cross[r]) << "vreg " << r;
}

TEST(Opt, OptimizeIsIdempotent)
{
    Module m = build(
        "(defarray a (8))"
        "(defvar out 0.0)"
        "(defun main ()"
        "  (let ((s 0.0))"
        "    (for (i 0 8) (set s (+ s (aref a i))))"
        "    (set out s)))");
    opt::optimize(m);
    const std::string once = m.toString();
    opt::optimize(m);
    EXPECT_EQ(m.toString(), once);
}

} // namespace
} // namespace procoup
