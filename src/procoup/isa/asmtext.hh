#ifndef PROCOUP_ISA_ASMTEXT_HH
#define PROCOUP_ISA_ASMTEXT_HH

/**
 * @file
 * Textual assembly for compiled programs.
 *
 * The paper's compiler "produces assembly code, a diagnostic file, and
 * a modified configuration file"; this module provides the equivalent
 * human-readable program format, both ways:
 *
 *   .entry 0
 *   .data 164
 *   .sym ma 0 81
 *   .init 3 4.5
 *   .init 90 0 empty
 *   .thread main
 *   .regs 12 4 0 0 0 2
 *   .params c0.r0
 *     0: fu0 iadd c0.r2, c0.r0, #1 | fu12 bt c4.r0, @4
 *     1: fu2 ld.wf/se c0.r3, #90, #0
 *
 * Within a row, `fuN` binds the following operation to global function
 * unit N; destinations print before sources; `#v` is an immediate
 * (floats contain '.', 'e', or 'inf'); `@n` is a branch row target;
 * `fnK` a fork target; `mN` a mark id. A float prints as the
 * shortest text that reads back to the same double, so
 * printAssembly/parseAssembly round-trip exactly: a reparsed program
 * runs to the same memory image and RunStats (tests/asmtext_test.cc
 * checks every benchmark in every mode).
 */

#include <string>

#include "procoup/isa/program.hh"

namespace procoup {
namespace isa {

/** Render a whole program as assembly text. */
std::string printAssembly(const Program& prog);

/** Parse assembly text. @throws CompileError with a line number. */
Program parseAssembly(const std::string& text);

} // namespace isa
} // namespace procoup

#endif // PROCOUP_ISA_ASMTEXT_HH
