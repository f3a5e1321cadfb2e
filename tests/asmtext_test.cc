/** @file Tests for the textual assembly printer/parser, including a
 *  round-trip property over every compiled benchmark. */

#include <gtest/gtest.h>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/isa/asmtext.hh"
#include "procoup/isa/builder.hh"
#include "procoup/support/error.hh"
#include "test_util.hh"

namespace procoup {
namespace {

using namespace isa;
using testutil::rr;

TEST(AsmText, PrintsDirectivesAndRows)
{
    ProgramBuilder pb(6);
    const auto a = pb.data("buf", 4);
    pb.init(a + 1, Value::makeFloat(2.5));
    pb.init(a + 2, Value::makeInt(0), /*full=*/false);

    auto t = pb.thread("main", {4});
    t.rowOp(testutil::fuIU(0),
            op::alu(Opcode::IADD, rr(0, 0), op::imm(1), op::imm(2)));
    t.rowOp(testutil::fuMU(0),
            op::ld(rr(0, 1), op::imm(a), op::imm(1),
                   MemFlavor::consumeLoad()));
    t.rowOp(testutil::fuBR0(), op::ethr());
    const Program p = pb.finish(0);

    const std::string text = printAssembly(p);
    EXPECT_NE(text.find(".entry 0"), std::string::npos);
    EXPECT_NE(text.find(".data 4"), std::string::npos);
    EXPECT_NE(text.find(".sym buf 0 4"), std::string::npos);
    EXPECT_NE(text.find(".init 1 2.5"), std::string::npos);
    EXPECT_NE(text.find(".init 2 0 empty"), std::string::npos);
    EXPECT_NE(text.find("iadd c0.r0, #1, #2"), std::string::npos);
    EXPECT_NE(text.find("ld.wf/se"), std::string::npos);
    EXPECT_NE(text.find("ethr"), std::string::npos);
}

TEST(AsmText, FloatImmediatesKeepTheirTag)
{
    // Tag and exact double survive, in immediates and .init words.
    for (double d : {2.0, 0.5, 0.1000001, 1.0 / 3.0, 1e300, -2.5e-310,
                     100000.0, -0.0, 9007199254740993.0}) {
        ProgramBuilder pb(6);
        pb.init(pb.data("x", 1), Value::makeFloat(d));
        auto t = pb.thread("main", {2});
        t.rowOp(testutil::fuFPU(0),
                op::alu(Opcode::FADD, rr(0, 0), op::fimm(d), op::fimm(d)));
        t.rowOp(testutil::fuBR0(), op::ethr());
        const Program q = parseAssembly(printAssembly(pb.finish(0)));
        const auto& add = q.threads[0].instructions[0].slots[0].op;
        ASSERT_TRUE(add.srcs[0].isImm());
        EXPECT_TRUE(testutil::sameBits(add.srcs[0].imm(),
                                       Value::makeFloat(d))) << d;
        ASSERT_EQ(q.memInits.size(), 1u);
        EXPECT_TRUE(testutil::sameBits(q.memInits[0].value,
                                       Value::makeFloat(d))) << d;
    }
}

TEST(AsmText, ParsesBranchForkAndMarkAnnotations)
{
    const char* text =
        ".entry 0\n"
        ".data 1\n"
        ".thread child\n"
        ".regs 2 0 0 0 0 0\n"
        ".params c0.r0\n"
        "  0: fu12 ethr\n"
        ".thread main\n"
        ".regs 2 0 0 0 0 0\n"
        "  0: fu0 mark m9\n"
        "  1: fu12 fork c4.r0, fn0 ; spawn\n"
        "  2: fu12 bt c4.r1, @4\n"
        "  3: fu12 br @2\n"
        "  4: fu12 ethr\n";
    // fork src in branch cluster register? regs says cluster 0 only;
    // adjust: use an immediate argument instead.
    (void)text;

    const char* good =
        ".entry 1\n"
        ".data 1\n"
        ".thread child\n"
        ".regs 2 0 0 0 0 0\n"
        ".params c0.r0\n"
        "  0: fu12 ethr\n"
        ".thread main\n"
        ".regs 2 0 0 0 0 2\n"
        "  0: fu0 mark m9\n"
        "  1: fu12 fork #5, fn0\n"
        "  2: fu12 bt c4.r1, @4\n"
        "  3: fu12 br @2\n"
        "  4: fu12 ethr\n";
    const Program p = parseAssembly(good);
    ASSERT_EQ(p.threads.size(), 2u);
    EXPECT_EQ(p.entry, 1u);
    const auto& main_t = p.threads[1];
    EXPECT_EQ(main_t.instructions[0].slots[0].op.markId, 9);
    EXPECT_EQ(main_t.instructions[1].slots[0].op.forkTarget, 0u);
    EXPECT_EQ(main_t.instructions[1].slots[0].op.srcs.size(), 1u);
    EXPECT_EQ(main_t.instructions[2].slots[0].op.branchTarget, 4u);
    EXPECT_EQ(main_t.instructions[3].slots[0].op.branchTarget, 2u);
}

TEST(AsmText, RejectsMalformedInput)
{
    EXPECT_THROW(parseAssembly(".thread t\n  0: fu0 bogus #1\n"),
                 CompileError);
    EXPECT_THROW(parseAssembly(".thread t\n  5: fu0 mark m1\n"),
                 CompileError);  // row out of order
    EXPECT_THROW(parseAssembly("  0: fu0 mark m1\n"),
                 CompileError);  // instruction outside a thread
    EXPECT_THROW(parseAssembly(".thread t\n  0: fu0 iadd #1, #2\n"),
                 CompileError);  // destination is not a register
    EXPECT_THROW(parseAssembly(".unknown 1\n"), CompileError);
    // Numbers are whole and in range, never truncated or narrowed.
    EXPECT_THROW(parseAssembly(".thread t\n  0: fu65538 mark m1\n"),
                 CompileError);  // unit past uint16
    EXPECT_THROW(
        parseAssembly(".thread t\n  0: fu0 iadd c0.r70000, #1, #2\n"),
        CompileError);  // register index past uint16
    EXPECT_THROW(parseAssembly(".thread t\n  0: fu12 br @4294967297\n"),
                 CompileError);  // branch target past uint32
    EXPECT_THROW(parseAssembly(".thread t\n  0x: fu0 mark m1\n"),
                 CompileError);  // trailing garbage in the row number
    EXPECT_THROW(parseAssembly(".thread t\n  0: fu2x mark m1\n"),
                 CompileError);  // trailing garbage in the unit
    EXPECT_THROW(parseAssembly(".entry -1\n"), CompileError);
    EXPECT_THROW(parseAssembly(".entry\n"), CompileError);
}

TEST(AsmText, RoundTripsEveryCompiledBenchmark)
{
    const auto machine = config::baseline();
    core::CoupledNode node(machine);
    for (const auto& b : benchmarks::all()) {
        for (auto mode : core::allSimModes()) {
            if (mode == core::SimMode::Ideal && !b.hasIdeal())
                continue;
            SCOPED_TRACE(b.name + "/" + core::simModeName(mode));
            const auto compiled = node.compile(b.forMode(mode), mode);
            const std::string once =
                printAssembly(compiled.program);
            const Program reparsed = parseAssembly(once);
            EXPECT_EQ(printAssembly(reparsed), once);
        }
    }
}

TEST(AsmText, ReparsedProgramExecutesIdentically)
{
    // Float immediates and .init values must survive the text exactly;
    // printed to 6 significant digits, FFT and Stencil fail verify.
    const auto machine = config::baseline();
    core::CoupledNode node(machine);
    for (const auto& b : benchmarks::all()) {
        for (auto mode : core::allSimModes()) {
            if (mode == core::SimMode::Ideal && !b.hasIdeal())
                continue;
            SCOPED_TRACE(b.name + "/" + core::simModeName(mode));
            const auto compiled = node.compile(b.forMode(mode), mode);
            const auto direct = node.run(compiled.program);
            const auto reparsed =
                node.run(parseAssembly(printAssembly(compiled.program)));
            EXPECT_TRUE(direct.stats == reparsed.stats);
            ASSERT_EQ(direct.memory.size(), reparsed.memory.size());
            for (std::size_t w = 0; w < direct.memory.size(); ++w)
                ASSERT_TRUE(testutil::sameBits(direct.memory[w], reparsed.memory[w]))
                    << "memory word " << w;
            std::string why;
            EXPECT_TRUE(benchmarks::verify(b.name, reparsed, &why)) << why;
        }
    }
}

} // namespace
} // namespace procoup
