/**
 * @file
 * Tier-1 differential soak: 500 generated programs, every invariant.
 *
 * Runs the fuzz farm's full battery (gen/soak.hh) over a fixed seed
 * range — each generated program on {base, bus} x {SEQ, STS, TPE,
 * Coupled}, clean and under a seeded fault plan — and additionally
 * replays EVERY sweep point on the slow reference simulator
 * (slow_reference_sim.hh), requiring bit-identical RunStats and an
 * identical memory image from both simulators, faulted runs included.
 * The seed range is fixed, so this is deterministic: a failure here
 * is a real divergence, and the report carries a reducer-minimized
 * witness ready for tests/corpus/.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <string>

#include "procoup/exp/cache.hh"
#include "procoup/gen/generator.hh"
#include "procoup/gen/soak.hh"
#include "slow_reference_sim.hh"

using namespace procoup;

namespace {

/** Replay cap: generated programs finish in a few thousand cycles;
 *  anything near this bound means the slow sim diverged into a spin. */
constexpr std::uint64_t kReplayCycleCap = 250000;

/** Outcomes carry no instruction stream, so the oracle compiles each
 *  point's program again through its own cache (compilation is a pure
 *  function of the point, so this is the program the sweep ran). */
gen::CrossCheck
slowSimOracle()
{
    auto cache = std::make_shared<exp::CompileCache>();
    return [cache](const exp::SweepPoint& pt,
                   const core::RunResult& r) -> std::string {
        const auto compiled =
            cache->compile(pt.source, pt.machine, pt.options);
        simtest::SlowReferenceSimulator slow(
            pt.machine, compiled->program, pt.simOptions);
        try {
            while (slow.step())
                if (slow.cycle() > kReplayCycleCap)
                    return "slow reference sim ran past cycle cap";
        } catch (const std::exception& e) {
            return std::string("slow reference sim threw: ") +
                   e.what();
        }
        if (!(slow.stats() == r.stats))
            return "RunStats diverge between fast and slow sim";
        for (std::uint32_t a = 0; a < slow.memory().size(); ++a)
            if (!(slow.memory().peek(a) == r.memory[a]))
                return "memory image diverges between fast and slow "
                       "sim";
        return "";
    };
}

} // namespace

TEST(FuzzSoak, FiveHundredSeedsAllModesAllOracles)
{
    gen::SoakOptions opts;
    opts.firstSeed = 1;
    opts.programs = 500;

    const gen::SoakReport rep = gen::runSoak(opts, slowSimOracle());

    EXPECT_EQ(rep.programs, 500);
    EXPECT_EQ(rep.points, 500 * (2 * 4 + 4));  // machines*modes + faulted
    for (const auto& m : rep.mismatches)
        ADD_FAILURE() << m.kind << " at " << m.label << " (seed "
                      << m.seed << "): " << m.detail
                      << "\nreduced witness:\n"
                      << m.reduced;
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(FuzzSoak, GeneratorIsDeterministic)
{
    for (std::uint64_t seed : {1ull, 7ull, 123ull, 4096ull}) {
        const gen::GeneratedProgram a = gen::generate(seed);
        const gen::GeneratedProgram b = gen::generate(seed);
        EXPECT_EQ(a.source, b.source) << "seed " << seed;
        EXPECT_EQ(a.checkedSymbols, b.checkedSymbols);
    }
}

TEST(FuzzSoak, CheckProgramAcceptsGeneratedPrograms)
{
    gen::SoakOptions opts;
    for (std::uint64_t seed = 900; seed < 910; ++seed) {
        const gen::GeneratedProgram g = gen::generate(seed);
        EXPECT_EQ(gen::checkProgram(g.source, opts), "")
            << "seed " << seed << "\n"
            << g.source;
    }
}
