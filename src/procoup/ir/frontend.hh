#ifndef PROCOUP_IR_FRONTEND_HH
#define PROCOUP_IR_FRONTEND_HH

/**
 * @file
 * PCL frontend: lowers parsed source forms into an IR Module.
 *
 * Language summary (paper: "simplified C semantics with Lisp syntax"):
 *
 *   (defun name (p...) body...)          procedures, macro-expanded
 *   (defvar name init)                   global scalar memory cell
 *   (defarray name (d...) [:int|:float]
 *       [:init-each expr] [:init (...)] [:empty])
 *   (let ((v e)...) body...)  (set v e)  (begin ...)
 *   (+ - * / mod ...)  (< <= = != > >=)  (and or not)
 *   (float e) (int e)
 *   (aref a i...) (aset a i... v)        plain load/store
 *   (wait-load a i...)                   load, wait-full / leave
 *   (take a i...)                        load, wait-full / set-empty
 *   (put a i... v)                       store, wait-empty / set-full
 *   (update a i... v)                    store, wait-full / leave full
 *   (if c t [e]) (while c body...)
 *   (for (v lo hi [:unroll [n]]) body...)
 *   (fork (f a...))                      spawn thread, fire and forget
 *   (forall (v lo hi) body...)           spawn per index and join
 *   (mark n)                             statistics marker
 *
 * Operators are machine operations (isa/alu.hh defines what each
 * computes): arithmetic wraps in 64-bit two's complement, a float
 * operand makes an arithmetic or comparison operator the float form
 * (its integer operands converted), comparisons yield 0 or 1, and
 * and/or/not take integers only: and/or are bitwise and evaluate
 * every operand (no short circuit), not is 1 for 0 and 0 otherwise.
 * An expression over constants is folded by that same definition, so
 * it evaluates exactly as it would at run time; only an integer
 * division or modulo by zero is left to trap at run time.
 *
 * Loop :unroll requires compile-time-constant bounds; this is how the
 * paper's "loops must be unrolled by hand" Ideal-mode programs are
 * expressed. Procedures are inlined at every call site ("procedures
 * are implemented as macro-expansions"); recursion is rejected.
 *
 * For static load balancing, each function spawned by fork/forall can
 * be emitted as several clones (FrontendOptions::forkClones); spawn
 * sites distribute instances across the clones, and the scheduler
 * later assigns each clone a different cluster (TPE) or cluster order
 * (Coupled) — the paper's "different orderings for different threads
 * serves as a simple form of load balancing".
 */

#include <string>
#include <vector>

#include "procoup/ir/ir.hh"
#include "procoup/lang/sexpr.hh"

namespace procoup {
namespace ir {

/** Frontend knobs (set by the compile driver, not end users). */
struct FrontendOptions
{
    /** Number of clones per spawned thread function (>= 1). */
    int forkClones = 1;
};

/** Lower parsed top-level forms to an IR module.
 *  @throws CompileError on malformed programs. */
Module buildModule(const std::vector<lang::Sexpr>& forms,
                   const FrontendOptions& opts = {});

/** Convenience: parse then lower. */
Module buildModule(const std::string& source,
                   const FrontendOptions& opts = {});

/**
 * Evaluate a compile-time constant expression (used for defvar and
 * array initializers and unrolled loop bounds). The operators have
 * their run-time semantics and operand rules (see above); further
 * supported are (if c a [b]), which takes an integer c and evaluates
 * only the chosen arm,
 * float/int casts, and sin/cos/sqrt/exp/abs/min/max.
 *
 * @param env constant bindings visible to the expression
 * @throws CompileError on a form that is not constant, on operand
 *         rules a compiled expression would break, and on an integer
 *         division or modulo by zero
 */
isa::Value evalConstExpr(
    const lang::Sexpr& e,
    const std::vector<std::pair<std::string, isa::Value>>& env);

} // namespace ir
} // namespace procoup

#endif // PROCOUP_IR_FRONTEND_HH
