#ifndef PROCOUP_EXP_CACHE_HH
#define PROCOUP_EXP_CACHE_HH

/**
 * @file
 * In-memory compile cache for experiment sweeps.
 *
 * Many sweep points differ only in runtime knobs — interconnect
 * scheme, memory model, arbitration policy, active-set size — that
 * sched::compile() never reads. The cache keys on (source text,
 * compile options, config::MachineConfig::compileFingerprint()) so
 * every identical compilation happens exactly once per sweep, no
 * matter how many points or worker threads share it. Every sweep
 * compiles through the cache; perfbench measures what a cold compile
 * costs (exp.compiles, opt.ms, sched.ms).
 *
 * Concurrency: the first caller of a key compiles; concurrent callers
 * of the same key block on a shared_future until the result (or the
 * CompileError) is ready, so a compilation is never duplicated even
 * under a race. Results are immutable (shared_ptr<const CompileResult>)
 * and safe to read from any thread.
 *
 * Compile *errors* are memoized too: every caller of a key whose
 * compilation threw rethrows the same CompileError.
 *
 * The cache lives for one process. A sweep that must survive a crash
 * resumes from its results journal (exp/journal.hh), which replays
 * finished points without compiling them again.
 */

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "procoup/config/machine.hh"
#include "procoup/sched/compiler.hh"

namespace procoup {
namespace exp {

class CompileCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;

        /** sched::compile() invocations: every miss compiles. The
         *  "zero recompiles" counter of journal replays. */
        std::uint64_t misses = 0;

        double hitRate() const
        {
            const std::uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) / total : 0.0;
        }
    };

    /** Compile (or fetch the memoized compilation of) @p source.
     *  @param[out] was_hit optionally set to whether this call was
     *  served without compiling.
     *  @throws CompileError exactly as sched::compile would. */
    std::shared_ptr<const sched::CompileResult>
    compile(const std::string& source,
            const config::MachineConfig& machine,
            const sched::CompileOptions& opts, bool* was_hit = nullptr);

    Stats stats() const;

    /** The cache key; exposed for tests. */
    static std::string key(const std::string& source,
                           const config::MachineConfig& machine,
                           const sched::CompileOptions& opts);

  private:
    using Entry =
        std::shared_future<std::shared_ptr<const sched::CompileResult>>;

    mutable std::mutex _mu;
    std::map<std::string, Entry> _entries;
    Stats _stats;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_CACHE_HH
