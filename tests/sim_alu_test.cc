/** @file Parameterized coverage of the functional ALU semantics. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "procoup/config/presets.hh"
#include "procoup/isa/alu.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sim/simulator.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace {

using isa::Opcode;
using isa::Value;
using isa::evalAlu;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// --- Integer binary operations ---------------------------------------

struct IntBinCase
{
    const char* name;
    Opcode op;
    std::int64_t a;
    std::int64_t b;
    std::int64_t expect;
};

class IntBinTest : public ::testing::TestWithParam<IntBinCase> {};

TEST_P(IntBinTest, Evaluates)
{
    const auto& p = GetParam();
    const Value r =
        evalAlu(p.op, {Value::makeInt(p.a), Value::makeInt(p.b)});
    EXPECT_FALSE(r.isFloat());
    EXPECT_EQ(r.rawInt(), p.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IntBinTest,
    ::testing::Values(
        IntBinCase{"add", Opcode::IADD, 7, 5, 12},
        IntBinCase{"add_negative", Opcode::IADD, -7, 5, -2},
        IntBinCase{"sub", Opcode::ISUB, 7, 5, 2},
        IntBinCase{"mul", Opcode::IMUL, -3, 9, -27},
        IntBinCase{"div", Opcode::IDIV, 17, 5, 3},
        IntBinCase{"div_negative", Opcode::IDIV, -17, 5, -3},
        IntBinCase{"mod", Opcode::IMOD, 17, 5, 2},
        IntBinCase{"and", Opcode::IAND, 0b1100, 0b1010, 0b1000},
        IntBinCase{"or", Opcode::IOR, 0b1100, 0b1010, 0b1110},
        IntBinCase{"xor", Opcode::IXOR, 0b1100, 0b1010, 0b0110},
        IntBinCase{"shl", Opcode::ISHL, 3, 4, 48},
        IntBinCase{"shr", Opcode::ISHR, 48, 4, 3},
        IntBinCase{"lt_true", Opcode::ILT, 2, 3, 1},
        IntBinCase{"lt_false", Opcode::ILT, 3, 2, 0},
        IntBinCase{"le_equal", Opcode::ILE, 3, 3, 1},
        IntBinCase{"eq", Opcode::IEQ, 4, 4, 1},
        IntBinCase{"ne", Opcode::INE, 4, 4, 0},
        IntBinCase{"gt", Opcode::IGT, 5, 4, 1},
        IntBinCase{"ge", Opcode::IGE, 4, 5, 0},
        // Two's-complement wrap-around, never undefined behaviour.
        IntBinCase{"add_wraps", Opcode::IADD, kMax, 1, kMin},
        IntBinCase{"sub_wraps", Opcode::ISUB, kMin, 1, kMax},
        IntBinCase{"mul_wraps", Opcode::IMUL, 752846022855, 752846022864,
                   922470640823155120},
        IntBinCase{"mul_min_by_neg1", Opcode::IMUL, kMin, -1, kMin},
        IntBinCase{"div_min_by_neg1", Opcode::IDIV, kMin, -1, kMin},
        IntBinCase{"mod_min_by_neg1", Opcode::IMOD, kMin, -1, 0},
        IntBinCase{"div_by_neg1", Opcode::IDIV, 7, -1, -7},
        IntBinCase{"shl_into_sign", Opcode::ISHL, 1, 63, kMin},
        IntBinCase{"shl_negative", Opcode::ISHL, -3, 2, -12},
        IntBinCase{"shl_count_mod_64", Opcode::ISHL, 3, 68, 48},
        IntBinCase{"shr_negative", Opcode::ISHR, -16, 2, -4}),
    [](const ::testing::TestParamInfo<IntBinCase>& i) {
        return i.param.name;
    });

// --- Float binary operations -----------------------------------------

struct FloatBinCase
{
    const char* name;
    Opcode op;
    double a;
    double b;
    double expect;
    bool int_result;
};

class FloatBinTest : public ::testing::TestWithParam<FloatBinCase> {};

TEST_P(FloatBinTest, Evaluates)
{
    const auto& p = GetParam();
    const Value r =
        evalAlu(p.op, {Value::makeFloat(p.a), Value::makeFloat(p.b)});
    if (p.int_result) {
        EXPECT_FALSE(r.isFloat());
        EXPECT_EQ(r.rawInt(), static_cast<std::int64_t>(p.expect));
    } else {
        EXPECT_TRUE(r.isFloat());
        EXPECT_DOUBLE_EQ(r.rawFloat(), p.expect);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, FloatBinTest,
    ::testing::Values(
        FloatBinCase{"add", Opcode::FADD, 1.5, 2.25, 3.75, false},
        FloatBinCase{"sub", Opcode::FSUB, 1.5, 2.0, -0.5, false},
        FloatBinCase{"mul", Opcode::FMUL, -1.5, 2.0, -3.0, false},
        FloatBinCase{"div", Opcode::FDIV, 7.0, 2.0, 3.5, false},
        FloatBinCase{"lt", Opcode::FLT, 1.0, 2.0, 1, true},
        FloatBinCase{"le", Opcode::FLE, 2.0, 2.0, 1, true},
        FloatBinCase{"eq", Opcode::FEQ, 2.0, 2.5, 0, true},
        FloatBinCase{"ne", Opcode::FNE, 2.0, 2.5, 1, true},
        FloatBinCase{"gt", Opcode::FGT, 2.5, 2.0, 1, true},
        FloatBinCase{"ge", Opcode::FGE, 1.0, 2.0, 0, true}),
    [](const ::testing::TestParamInfo<FloatBinCase>& i) {
        return i.param.name;
    });

// --- Unary / conversion / move ----------------------------------------

TEST(Alu, UnaryOps)
{
    EXPECT_EQ(evalAlu(Opcode::INEG, {Value::makeInt(5)}).rawInt(), -5);
    EXPECT_EQ(evalAlu(Opcode::INEG, {Value::makeInt(kMin)}).rawInt(),
              kMin);
    EXPECT_EQ(evalAlu(Opcode::INOT, {Value::makeInt(0)}).rawInt(), 1);
    EXPECT_EQ(evalAlu(Opcode::INOT, {Value::makeInt(7)}).rawInt(), 0);
    EXPECT_DOUBLE_EQ(
        evalAlu(Opcode::FNEG, {Value::makeFloat(2.5)}).rawFloat(),
        -2.5);
}

TEST(Alu, Conversions)
{
    const Value f = evalAlu(Opcode::ITOF, {Value::makeInt(-3)});
    EXPECT_TRUE(f.isFloat());
    EXPECT_DOUBLE_EQ(f.rawFloat(), -3.0);

    const Value i = evalAlu(Opcode::FTOI, {Value::makeFloat(2.9)});
    EXPECT_FALSE(i.isFloat());
    EXPECT_EQ(i.rawInt(), 2);  // truncation toward zero
    EXPECT_EQ(evalAlu(Opcode::FTOI, {Value::makeFloat(-2.9)}).rawInt(),
              -2);
}

TEST(Alu, FloatToIntIsDefinedEverywhere)
{
    // NaN, infinities and |x| >= 2^63 give INT64_MIN (x86 cvttsd2si);
    // everything else truncates toward zero.
    const struct
    {
        double in;
        std::int64_t want;
    } cases[] = {
        {std::nan(""), kMin}, {HUGE_VAL, kMin}, {-HUGE_VAL, kMin},
        {1e30, kMin},         {-1e30, kMin},    {0x1p63, kMin},
        {-0x1p63, kMin},      {-0.5, 0},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.in);
        EXPECT_EQ(isa::truncToInt(c.in), c.want);
        EXPECT_EQ(Value::makeFloat(c.in).asInt(), c.want);
        EXPECT_EQ(evalAlu(Opcode::FTOI, {Value::makeFloat(c.in)}).rawInt(),
                  c.want);
    }
    // The largest double below 2^63 still converts exactly.
    const double top = std::nextafter(0x1p63, 0.0);
    EXPECT_EQ(isa::truncToInt(top), 9223372036854774784);
    EXPECT_EQ(isa::truncToInt(-top), -9223372036854774784);
    // A float operand of an integer op converts the same way.
    EXPECT_EQ(evalAlu(Opcode::IADD, {Value::makeFloat(1e30),
                                     Value::makeInt(1)})
                  .rawInt(),
              kMin + 1);
}

TEST(Alu, MovesPreserveTags)
{
    const Value fi = evalAlu(Opcode::MOV, {Value::makeFloat(1.25)});
    EXPECT_TRUE(fi.isFloat());
    EXPECT_DOUBLE_EQ(fi.rawFloat(), 1.25);
    const Value ii = evalAlu(Opcode::FMOV, {Value::makeInt(9)});
    EXPECT_FALSE(ii.isFloat());
    EXPECT_EQ(ii.rawInt(), 9);
}

TEST(Alu, MixedTagOperandsConvert)
{
    // Integer unit coerces floats to ints; float unit the reverse.
    EXPECT_EQ(evalAlu(Opcode::IADD, {Value::makeFloat(2.9),
                                     Value::makeInt(1)})
                  .rawInt(),
              3);
    EXPECT_DOUBLE_EQ(evalAlu(Opcode::FMUL, {Value::makeInt(3),
                                            Value::makeFloat(0.5)})
                         .rawFloat(),
                     1.5);
}

TEST(Alu, DivisionByZeroTraps)
{
    EXPECT_THROW(
        evalAlu(Opcode::IDIV, {Value::makeInt(1), Value::makeInt(0)}),
        SimError);
    EXPECT_THROW(
        evalAlu(Opcode::IMOD, {Value::makeInt(1), Value::makeInt(0)}),
        SimError);
    // IEEE float division by zero is defined.
    EXPECT_TRUE(std::isinf(
        evalAlu(Opcode::FDIV,
                {Value::makeFloat(1.0), Value::makeFloat(0.0)})
            .rawFloat()));
}

TEST(Alu, ConstantFoldingWrapsLikeTheAlu)
{
    // Each edge case three ways: folded by the frontend (defvar
    // initializers and constant operands), folded by the optimizer
    // (operands that constant propagation discovers), and computed by
    // the simulator's ALU on values loaded from memory. All agree.
    const std::string src =
        "(defarray in (4) :int :init (752846022855 752846022864"
        "                             9223372036854775807 -1))"
        "(defvar c0 (* 752846022855 752846022864))"
        "(defvar c1 (+ 9223372036854775807 1))"
        "(defvar c2 (/ (- (- 0 9223372036854775807) 1) -1))"
        "(defvar c3 (mod (- (- 0 9223372036854775807) 1) -1))"
        "(defarray fin (1) :init (1e30))"
        "(defvar c4 (- (- (- 0 9223372036854775807) 1)))"
        "(defvar c5 (int 1e30))"
        "(defarray folded (6) :int)"
        "(defarray optimized (3) :int)"
        "(defarray run (6) :int)"
        "(defun main ()"
        "  (aset folded 0 (* 752846022855 752846022864))"
        "  (aset folded 1 (+ 9223372036854775807 1))"
        "  (aset folded 2 (/ (- (- 0 9223372036854775807) 1) -1))"
        "  (aset folded 3 (mod (- (- 0 9223372036854775807) 1) -1))"
        "  (aset folded 4 (- (- (- 0 9223372036854775807) 1)))"
        "  (aset folded 5 (int 1e30))"
        "  (let ((m (- (- 0 9223372036854775807) 1)) (x 1e30))"
        "    (aset optimized 0 (/ m -1))"
        "    (aset optimized 1 (mod m -1))"
        "    (aset optimized 2 (int x)))"
        "  (let ((a (aref in 0)) (b (aref in 1)) (mx (aref in 2))"
        "        (n1 (aref in 3)) (f (aref fin 0)))"
        "    (aset run 0 (* a b))"
        "    (aset run 1 (+ mx 1))"
        "    (aset run 2 (/ (- (- 0 mx) 1) n1))"
        "    (aset run 3 (mod (- (- 0 mx) 1) n1))"
        "    (aset run 4 (- (- (- 0 mx) 1)))"
        "    (aset run 5 (int f))))";
    const auto machine = config::baseline();
    const auto compiled =
        sched::compile(src, machine, sched::CompileOptions{});
    sim::Simulator sim(machine, compiled.program);
    sim.run();
    auto at = [&](const std::string& sym, std::uint32_t i) {
        return sim.memory()
            .peek(compiled.program.symbol(sym).base + i)
            .rawInt();
    };

    const std::int64_t expect[] = {922470640823155120, kMin, kMin, 0,
                                   kMin, kMin};
    for (std::uint32_t i = 0; i < 6; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(at("run", i), expect[i]);
        EXPECT_EQ(at("folded", i), expect[i]);
        EXPECT_EQ(at(strCat("c", i), 0), expect[i]);
    }
    EXPECT_EQ(at("optimized", 0), kMin);
    EXPECT_EQ(at("optimized", 1), 0);
    EXPECT_EQ(at("optimized", 2), kMin);
}

} // namespace
} // namespace procoup
