/** @file Language acceptance tests: corner cases of scoping,
 *  expansion, threading, and typing, verified end to end. */

#include <gtest/gtest.h>

#include <bit>
#include <optional>

#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/ir/frontend.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"
#include "test_util.hh"

namespace procoup {
namespace {

using core::CoupledNode;
using core::SimMode;

core::RunResult
run(const std::string& src, SimMode mode = SimMode::Coupled)
{
    CoupledNode node(config::baseline());
    return node.runSource(src, mode);
}

TEST(LanguageCorners, LetShadowing)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((x 1))"
        "    (let ((x 10))"
        "      (set x (+ x 5)))"       // inner x
        "    (set out x)))");           // outer x untouched
    EXPECT_EQ(r.intValue("out"), 1);
}

TEST(LanguageCorners, DefunCallingDefun)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun twice (x) (* 2 x))"
        "(defun quad (x) (twice (twice x)))"
        "(defun main () (set out (quad 5)))");
    EXPECT_EQ(r.intValue("out"), 20);
}

TEST(LanguageCorners, DefunParamsAreCopies)
{
    // set on a parameter must not affect the caller's variable.
    const auto r = run(
        "(defvar out 0)"
        "(defun clobber (x) (set x 99) x)"
        "(defun main ()"
        "  (let ((a 5))"
        "    (clobber a)"
        "    (set out a)))");
    EXPECT_EQ(r.intValue("out"), 5);
}

TEST(LanguageCorners, DefunCannotSeeCallerLocals)
{
    EXPECT_THROW(run(
        "(defun leak () hidden)"
        "(defun main () (let ((hidden 5)) (leak)))"),
        CompileError);
}

TEST(LanguageCorners, ForallInsideDefunCalledFromMain)
{
    const auto r = run(
        "(defarray a (8))"
        "(defun fill () (forall (i 0 8) (aset a i (float i))))"
        "(defvar sum 0.0)"
        "(defun main ()"
        "  (fill)"
        "  (let ((s 0.0))"
        "    (for (i 0 8) (set s (+ s (aref a i))))"
        "    (set sum s)))");
    EXPECT_DOUBLE_EQ(r.value("sum"), 28.0);
}

TEST(LanguageCorners, UnrollInsideForallBody)
{
    const auto r = run(
        "(defarray a (4 4))"
        "(defun main ()"
        "  (forall (r 0 4)"
        "    (for (c 0 4 :unroll)"
        "      (aset a r c (float (+ (* 10 r) c))))))");
    for (int rr = 0; rr < 4; ++rr)
        for (int c = 0; c < 4; ++c)
            EXPECT_DOUBLE_EQ(r.value("a", 4 * rr + c), 10.0 * rr + c);
}

TEST(LanguageCorners, BeginYieldsLastValue)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun main ()"
        "  (set out (begin 1 2 (+ 3 4))))");
    EXPECT_EQ(r.intValue("out"), 7);
}

TEST(LanguageCorners, NestedWhileLoops)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((i 0) (total 0))"
        "    (while (< i 5)"
        "      (let ((j 0))"
        "        (while (< j i)"
        "          (set total (+ total 1))"
        "          (set j (+ j 1))))"
        "      (set i (+ i 1)))"
        "    (set out total)))");
    EXPECT_EQ(r.intValue("out"), 10);  // 0+1+2+3+4
}

TEST(LanguageCorners, AndOrNotSemantics)
{
    const auto r = run(
        "(defvar a 0)(defvar b 0)(defvar c 0)"
        "(defun main ()"
        "  (let ((x 3) (y 0))"
        "    (set a (and (< y x) (!= x 0)))"
        "    (set b (or (= x 0) (= y 0)))"
        "    (set c (not (and 1 0)))))");
    EXPECT_EQ(r.intValue("a"), 1);
    EXPECT_EQ(r.intValue("b"), 1);
    EXPECT_EQ(r.intValue("c"), 1);
}

TEST(LanguageCorners, NegativeNumbersAndUnaryMinus)
{
    const auto r = run(
        "(defvar i 0)(defvar f 0.0)"
        "(defun main ()"
        "  (let ((x 7) (y 2.5))"
        "    (set i (- x))"
        "    (set f (+ -1.5 (- y)))))");
    EXPECT_EQ(r.intValue("i"), -7);
    EXPECT_DOUBLE_EQ(r.value("f"), -4.0);
}

TEST(LanguageCorners, IntFloatCasts)
{
    const auto r = run(
        "(defvar i 0)(defvar f 0.0)"
        "(defun main ()"
        "  (let ((x 2.9))"
        "    (set i (int x))"
        "    (set f (/ (float 7) 2.0))))");
    EXPECT_EQ(r.intValue("i"), 2);
    EXPECT_DOUBLE_EQ(r.value("f"), 3.5);
}

TEST(LanguageCorners, GlobalScalarsReadAndWrite)
{
    const auto r = run(
        "(defvar counter 10)"
        "(defvar out 0)"
        "(defun main ()"
        "  (set counter (+ counter 5))"
        "  (set out (* counter 2)))");
    EXPECT_EQ(r.intValue("counter"), 15);
    EXPECT_EQ(r.intValue("out"), 30);
}

TEST(LanguageCorners, WhileConditionMustBeInt)
{
    EXPECT_THROW(run(
        "(defun main () (while 1.5 0))"), CompileError);
}

TEST(LanguageCorners, SetOnUnrolledVariableRejected)
{
    EXPECT_THROW(run(
        "(defun main () (for (i 0 3 :unroll) (set i 9)))"),
        CompileError);
}

TEST(LanguageCorners, ArrayDimensionMismatchRejected)
{
    EXPECT_THROW(run(
        "(defarray a (4 4))"
        "(defun main () (aref a 1))"), CompileError);
    EXPECT_THROW(run(
        "(defarray a (4))"
        "(defun main () (aset a 1 2 3.0))"), CompileError);
}

TEST(LanguageCorners, ForkRequiresCallForm)
{
    EXPECT_THROW(run("(defun main () (fork 5))"), CompileError);
    EXPECT_THROW(run(
        "(defun w (a b c d) 0)"
        "(defun main () (fork (w 1 2 3 4)))"), CompileError);
}

TEST(LanguageCorners, InconsistentForkArgTypesRejected)
{
    EXPECT_THROW(run(
        "(defarray a (4))"
        "(defun w (x) (aset a 0 (float x)))"
        "(defun main ()"
        "  (fork (w 1))"
        "  (fork (w 2.5)))"), CompileError);
}

TEST(LanguageCorners, EmptyForallBodyStillJoins)
{
    // Zero-trip forall: no children, no join wait, no deadlock.
    const auto r = run(
        "(defvar out 0)"
        "(defarray a (4))"
        "(defun main ()"
        "  (let ((n 0))"
        "    (forall (i 0 n) (aset a i 1.0)))"
        "  (set out 1))");
    EXPECT_EQ(r.intValue("out"), 1);
}

TEST(LanguageCorners, ForallSingleIteration)
{
    const auto r = run(
        "(defarray a (1))"
        "(defun main () (forall (i 0 1) (aset a i 9.0)))");
    EXPECT_DOUBLE_EQ(r.value("a", 0), 9.0);
}

// --- One evaluator ----------------------------------------------------
//
// An operator computes the same word wherever it is evaluated: in a
// defarray :init (the constant evaluator), over literals (folded by the
// frontend) and over defvar operands (run on the simulated machine).
// Where one site rejects a case, all three reject it with one message.

/** A site's result: the word, or the CompileError without location. */
struct SiteResult
{
    std::optional<isa::Value> word;
    std::string error;
};

std::string
withoutLocation(const std::string& msg)
{
    const auto at = msg.rfind(" (at ");
    return at == std::string::npos ? msg : msg.substr(0, at);
}

bool
sameResult(const SiteResult& a, const SiteResult& b)
{
    if (!a.word || !b.word)
        return !a.word && !b.word && a.error == b.error;
    return testutil::sameBits(*a.word, *b.word);
}

std::string
describe(const SiteResult& r)
{
    if (!r.word)
        return "CompileError: " + r.error;
    return strCat(r.word->isFloat() ? "float " : "int ",
                  r.word->isFloat()
                      ? strCat(std::bit_cast<std::uint64_t>(
                            r.word->rawFloat()))
                      : r.word->toString());
}

/** The CompileError @p source raises in the frontend, or "". */
std::string
frontendError(const std::string& source)
{
    try {
        ir::buildModule(source);
        return "";
    } catch (const CompileError& e) {
        return withoutLocation(e.what());
    }
}

TEST(LanguageCorners, EveryEvaluationSiteComputesOperatorsAlike)
{
    const std::vector<std::string> operands = {
        "0", "1", "-1", "2", "9223372036854775807",
        "-9223372036854775808", "9007199254740992", "9007199254740993",
        "0.5", "1e300"};
    const std::vector<std::string> binary = {
        "+", "-", "*", "/", "mod", "<", "<=", "=", "!=", ">", ">=",
        "and", "or"};

    struct Case
    {
        std::string op;
        std::vector<std::string> args;
        SiteResult init;
        std::string literal;  ///< (op args...) over literals
        std::string runtime;  ///< the same over defvars a<k>, b<k>
    };
    std::vector<Case> cases;
    for (const auto& a : operands) {
        cases.push_back({"not", {a}, {}, "", ""});
        cases.push_back({"-", {a}, {}, "", ""});
        for (const auto& b : operands) {
            const bool int_zero_divisor =
                (b == "0") && a.find_first_of(".e") == std::string::npos;
            for (const auto& op : binary)
                if (!((op == "/" || op == "mod") && int_zero_divisor))
                    cases.push_back({op, {a, b}, {}, "", ""});
        }
    }

    // Site 1, the constant evaluator; its result type picks the type of
    // the result cell r<k> that sites 2 and 3 store to.
    std::string literal_defs, literal_body, runtime_defs, runtime_body;
    std::vector<std::size_t> ran;
    for (std::size_t k = 0; k < cases.size(); ++k) {
        Case& c = cases[k];
        std::string lit = "(" + c.op, run = "(" + c.op;
        for (std::size_t j = 0; j < c.args.size(); ++j) {
            lit += " " + c.args[j];
            run += strCat(" ", j == 0 ? "a" : "b", k);
        }
        c.literal = lit + ")";
        c.runtime = run + ")";
        try {
            const auto mod = ir::buildModule(
                "(defarray r (1) :int :init (" + c.literal +
                "))(defun main () 0)");
            c.init.word = mod.findGlobal("r")->inits.at(0).second;
        } catch (const CompileError& e) {
            c.init.error = withoutLocation(e.what());
        }

        std::string vars;
        for (std::size_t j = 0; j < c.args.size(); ++j)
            vars += strCat("(defvar ", j == 0 ? "a" : "b", k, " ",
                           c.args[j], ")");
        const std::string cell = strCat("(defvar r", k, " ",
            c.init.word && c.init.word->isFloat() ? "0.0" : "0", ")");
        const std::string lit_set = strCat("(set r", k, " ", c.literal, ")");
        const std::string run_set = strCat("(set r", k, " ", c.runtime, ")");

        // Sites 2 and 3 compile alone first; the cases every site
        // accepts then run together, one program per site.
        const SiteResult lit_err{
            std::nullopt,
            frontendError(cell + "(defun main () " + lit_set + ")")};
        const SiteResult run_err{
            std::nullopt,
            frontendError(vars + cell + "(defun main () " + run_set + ")")};
        if (c.init.word && lit_err.error.empty() && run_err.error.empty()) {
            literal_defs += cell;
            literal_body += lit_set;
            runtime_defs += vars + cell;
            runtime_body += run_set;
            ran.push_back(k);
            continue;
        }
        EXPECT_TRUE(sameResult(c.init, lit_err) &&
                    sameResult(c.init, run_err))
            << c.literal << ": init " << describe(c.init) << "; literal "
            << (lit_err.error.empty() ? "compiles" : lit_err.error)
            << "; runtime "
            << (run_err.error.empty() ? "compiles" : run_err.error);
    }

    const core::CoupledNode node(config::baseline());
    const auto literal_run = node.runSource(
        literal_defs + "(defun main () " + literal_body + ")",
        SimMode::Seq);
    const auto runtime_run = node.runSource(
        runtime_defs + "(defun main () " + runtime_body + ")",
        SimMode::Seq);
    auto cell = [](const core::RunResult& r, std::size_t k) {
        const auto& sym = r.compiled.program.symbol(strCat("r", k));
        return SiteResult{r.memory.at(sym.base), ""};
    };
    for (std::size_t k : ran) {
        const Case& c = cases[k];
        const SiteResult lit = cell(literal_run, k);
        const SiteResult run = cell(runtime_run, k);
        EXPECT_TRUE(sameResult(c.init, lit) && sameResult(c.init, run))
            << c.literal << ": init " << describe(c.init) << "; literal "
            << describe(lit) << "; runtime " << describe(run);
    }
    EXPECT_GT(ran.size(), cases.size() / 2);
}

} // namespace
} // namespace procoup
