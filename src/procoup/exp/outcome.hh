#ifndef PROCOUP_EXP_OUTCOME_HH
#define PROCOUP_EXP_OUTCOME_HH

/**
 * @file
 * RunOutcome: the one type of a sweep result, executed (exp/runner.hh)
 * or replayed from the results journal (exp/journal.hh). It carries
 * no instruction stream; the CompileCache owns compiled programs (see
 * core::RunResult::compiled).
 */

#include <cstdint>
#include <string>

#include "procoup/core/node.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace exp {

struct SweepPoint;

/** What one sweep point produced. */
struct RunOutcome
{
    const SweepPoint* point = nullptr;  ///< owned by the caller's plan
    core::RunResult result;

    /** Non-empty if verification failed (only seen by callers that
     *  set exitOnVerifyFailure = false), or — with failed below — the
     *  diagnostic dump of a fail-safe-captured simulation error. */
    std::string error;

    /** The simulation threw SimError and failSafe captured it; result
     *  is empty and errorKind/errorCycle/error describe the failure. */
    bool failed = false;
    SimErrorKind errorKind = SimErrorKind::Runtime;
    std::uint64_t errorCycle = 0;

    /** Attempts beyond the first (reseeded-fault-plan retries). */
    int retries = 0;

    /** This point's compile was served from the compile cache. */
    bool compileCached = false;

    /** Restored from the results journal; nothing re-executed. */
    bool replayed = false;

    /** Wall-clock this point took (compile + simulate + verify). */
    double wallMs = 0.0;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_OUTCOME_HH
