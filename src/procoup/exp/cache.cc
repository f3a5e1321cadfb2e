#include "procoup/exp/cache.hh"

#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

std::string
CompileCache::key(const std::string& source,
                  const config::MachineConfig& machine,
                  const sched::CompileOptions& opts)
{
    return strCat(machine.compileFingerprint(), "|mode=",
                  static_cast<int>(opts.mode), "|clones=",
                  opts.forkClones, "|opt=", opts.runOptimizer, "|",
                  source);
}

std::shared_ptr<const sched::CompileResult>
CompileCache::compile(const std::string& source,
                      const config::MachineConfig& machine,
                      const sched::CompileOptions& opts, bool* was_hit)
{
    if (was_hit)
        *was_hit = false;
    const std::string k = key(source, machine, opts);
    std::promise<std::shared_ptr<const sched::CompileResult>> promise;
    Entry entry;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(_mu);
        auto it = _entries.find(k);
        if (it == _entries.end()) {
            owner = true;
            ++_stats.misses;
            entry = promise.get_future().share();
            _entries.emplace(k, entry);
        } else {
            ++_stats.hits;
            if (was_hit)
                *was_hit = true;
            entry = it->second;
        }
    }
    if (owner) {
        try {
            promise.set_value(std::make_shared<const sched::CompileResult>(
                sched::compile(source, machine, opts)));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return entry.get();  // rethrows the owner's CompileError, if any
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stats;
}

} // namespace exp
} // namespace procoup
