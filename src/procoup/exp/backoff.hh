#ifndef PROCOUP_EXP_BACKOFF_HH
#define PROCOUP_EXP_BACKOFF_HH

/**
 * @file
 * Bounded exponential backoff with deterministic jitter.
 *
 * The policy behind the fail-safe --retry-faulted path: re-running a
 * faulted point under a reseeded fault plan. Delays grow
 * exponentially from baseDelayMs, are capped at maxDelayMs, and carry
 * multiplicative jitter in [1, 2) so pool threads retrying the same
 * hiccup do not stampede in lockstep ("Is Parallel Programming
 * Hard…", PAPERS.md, on avoiding synchronized retry storms).
 *
 * The jitter is *deterministic*: it is drawn from (seed, attempt) by
 * splitmix64, not from wall-clock or a global RNG, so a retried sweep
 * sleeps the same schedule every run and tests can assert on attempt
 * counts without timing flakes. Only the sleep duration is jittered —
 * results never depend on it.
 */

#include <cstdint>

namespace procoup {
namespace exp {

struct RetryPolicy
{
    /** Total tries including the first (1 = never retry). */
    int maxAttempts = 3;

    /** Delay before the first retry; doubles per further retry. */
    double baseDelayMs = 25.0;

    /** Upper bound on any single delay (pre-jitter). */
    double maxDelayMs = 2000.0;

    /** Retries this policy allows after the initial attempt. */
    int maxRetries() const
    {
        return maxAttempts > 1 ? maxAttempts - 1 : 0;
    }

    /**
     * Delay before retry number @p retry (1-based), jittered by
     * @p seed. Exponential: base * 2^(retry-1), capped, then scaled
     * by a deterministic factor in [1, 2).
     */
    double delayMs(std::uint64_t seed, int retry) const
    {
        double d = baseDelayMs;
        for (int i = 1; i < retry && d < maxDelayMs; ++i)
            d *= 2.0;
        if (d > maxDelayMs)
            d = maxDelayMs;
        return d * (1.0 + jitter01(seed, retry));
    }

    /** Deterministic jitter draw in [0, 1) from (seed, retry). */
    static double jitter01(std::uint64_t seed, int retry)
    {
        std::uint64_t z =
            seed + 0x9e3779b97f4a7c15ull *
                       (static_cast<std::uint64_t>(retry) + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        return static_cast<double>(z >> 11) /
               static_cast<double>(1ull << 53);
    }
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_BACKOFF_HH
