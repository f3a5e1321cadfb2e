#ifndef PROCOUP_SUPPORT_ERROR_HH
#define PROCOUP_SUPPORT_ERROR_HH

/**
 * @file
 * Error reporting primitives.
 *
 * Three tiers, following the gem5 convention:
 *  - panic():      an internal invariant was violated (a bug in this
 *                  library); aborts the process.
 *  - CompileError: the user's source program or machine description is
 *                  malformed; thrown so callers (and tests) can recover.
 *  - SimError:     the simulated program misbehaved at runtime (deadlock,
 *                  wild address, ...); thrown with diagnostics attached.
 */

#include <cstdint>
#include <stdexcept>
#include <string>

namespace procoup {

/** Error in user-supplied source code or configuration. */
class CompileError : public std::runtime_error
{
  public:
    explicit CompileError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/**
 * Why a simulation was aborted. Structured so fail-safe sweep
 * execution (exp::SweepRunner) can classify a failed point into a
 * machine-readable error record instead of parsing what() strings.
 * The values are persisted in journal records (exp/serialize.hh):
 * append new kinds, never reorder.
 */
enum class SimErrorKind
{
    Runtime,            ///< the simulated program misbehaved (wild
                        ///< address, bad fork, ...)
    Deadlock,           ///< no forward progress for the configured limit
    CycleLimit,         ///< the per-run cycle budget was exhausted
    WallClockDeadline,  ///< the per-run wall-clock budget was exhausted
    InvariantViolation, ///< a --sanitize re-validation failed
};

/** Stable display/schema name, e.g. "wall-clock-deadline". */
std::string simErrorKindName(SimErrorKind k);

/** Error raised by the simulator for a misbehaving simulated program
 *  or an exhausted run budget, with diagnostic context attached. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string& what)
        : std::runtime_error(what)
    {}

    SimError(SimErrorKind kind, std::uint64_t cycle,
             const std::string& what)
        : std::runtime_error(what), _kind(kind), _cycle(cycle)
    {}

    SimErrorKind kind() const { return _kind; }

    /** Simulation cycle the error was raised at (0 for errors thrown
     *  before or outside the cycle loop). */
    std::uint64_t cycle() const { return _cycle; }

  private:
    SimErrorKind _kind = SimErrorKind::Runtime;
    std::uint64_t _cycle = 0;
};

namespace detail {
[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);
} // namespace detail

/** Abort with a message; use only for internal invariant violations. */
#define PROCOUP_PANIC(msg) \
    ::procoup::detail::panicImpl(__FILE__, __LINE__, (msg))

/** Assert an internal invariant; aborts with location info on failure. */
#define PROCOUP_ASSERT(cond, msg)                                   \
    do {                                                            \
        if (!(cond))                                                \
            ::procoup::detail::panicImpl(__FILE__, __LINE__,        \
                std::string("assertion failed: " #cond " — ") + (msg)); \
    } while (0)

} // namespace procoup

#endif // PROCOUP_SUPPORT_ERROR_HH
