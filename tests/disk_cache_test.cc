/** @file Persistent compile cache: cross-instance reuse with zero
 *  recompiles, silent recovery from truncated, bit-flipped and
 *  checksum-valid-but-invalid entries (identical RunStats, corruption
 *  counted), atomic publication, and the --no-disk-cache / disabled
 *  escape hatches. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/cache.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/config/validate.hh"
#include "procoup/exp/serialize.hh"
#include "test_util.hh"

namespace procoup {
namespace {

std::string
tempDir()
{
    char tmpl[] = "/tmp/procoup_diskcache_XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d;
}

struct Workload
{
    std::string source;
    config::MachineConfig machine = config::baseline();
    sched::CompileOptions opts;

    Workload()
    {
        const auto& b = benchmarks::byName("Matrix");
        source = b.forMode(core::SimMode::Coupled);
        opts = core::optionsFor(core::SimMode::Coupled);
    }

    std::string entryPath(const std::string& dir) const
    {
        return exp::CompileCache::entryPath(
            dir, exp::CompileCache::key(source, machine, opts));
    }
};

/** Run the workload through a fresh cache bound to @p dir. */
sim::RunStats
runThrough(const Workload& w, const std::string& dir,
           exp::CompileCache::Stats* stats_out = nullptr)
{
    exp::ExperimentPlan plan("disk-cache-test");
    plan.addBenchmark(w.machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.diskCacheDir = dir;
    exp::SweepRunner runner(ropts);
    const exp::SweepResult res = runner.run(plan);
    if (stats_out)
        *stats_out = runner.cache().stats();
    return res.outcomes.front().result.stats;
}

TEST(DiskCache, WarmStartCompilesNothingAndMatches)
{
    const std::string dir = tempDir();
    Workload w;

    exp::CompileCache::Stats cold;
    const sim::RunStats a = runThrough(w, dir, &cold);
    EXPECT_GT(cold.compiles, 0u);
    EXPECT_GT(cold.diskStores, 0u);
    EXPECT_EQ(cold.diskHits, 0u);
    std::ifstream entry(w.entryPath(dir));
    EXPECT_TRUE(entry.good()) << w.entryPath(dir);

    // A different process (modeled by a fresh cache) compiles nothing.
    exp::CompileCache::Stats warm;
    const sim::RunStats b = runThrough(w, dir, &warm);
    EXPECT_EQ(warm.compiles, 0u);
    EXPECT_GT(warm.diskHits, 0u);
    EXPECT_EQ(warm.diskCorrupt, 0u);
    EXPECT_TRUE(a == b);
}

TEST(DiskCache, TruncatedEntryIsSilentlyRecompiled)
{
    const std::string dir = tempDir();
    Workload w;
    const sim::RunStats a = runThrough(w, dir);

    const std::string path = w.entryPath(dir);
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(path, &bytes));
    ASSERT_TRUE(
        exp::atomicWriteFile(path, bytes.substr(0, bytes.size() / 2)));

    exp::CompileCache::Stats st;
    const sim::RunStats b = runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_GT(st.compiles, 0u);   // recompiled...
    EXPECT_GT(st.diskStores, 0u); // ...and re-published
    EXPECT_TRUE(a == b);          // with identical results

    // The re-published entry serves the next run again.
    exp::CompileCache::Stats healed;
    runThrough(w, dir, &healed);
    EXPECT_EQ(healed.compiles, 0u);
    EXPECT_GT(healed.diskHits, 0u);
}

TEST(DiskCache, BitFlippedEntryIsSilentlyRecompiled)
{
    const std::string dir = tempDir();
    Workload w;
    const sim::RunStats a = runThrough(w, dir);

    const std::string path = w.entryPath(dir);
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(path, &bytes));
    // Flip a payload bit (past the header) so the length still parses
    // but the checksum does not.
    bytes[exp::kFrameHeaderSize + bytes.size() / 2] ^= 0x01;
    ASSERT_TRUE(exp::atomicWriteFile(path, bytes));

    exp::CompileCache::Stats st;
    const sim::RunStats b = runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_GT(st.compiles, 0u);
    EXPECT_TRUE(a == b);
}

TEST(DiskCache, KeyCollisionIsDetectedByEmbeddedKey)
{
    const std::string dir = tempDir();
    Workload w;
    runThrough(w, dir);

    // A foreign entry under our file name (hash collision model):
    // valid frame, wrong embedded key string.
    exp::ByteWriter fw;
    fw.str("some other compilation key");
    ASSERT_TRUE(exp::atomicWriteFile(w.entryPath(dir),
                                     exp::frame(fw.take())));

    exp::CompileCache::Stats st;
    runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_GT(st.compiles, 0u);
}

/** The payload of the entry at @p path: key string + CompileResult. */
std::string
entryPayload(const std::string& path)
{
    std::string bytes, payload;
    std::size_t offset = 0;
    EXPECT_TRUE(exp::readWholeFile(path, &bytes));
    EXPECT_TRUE(exp::readFrame(bytes, offset, &payload));
    return payload;
}

TEST(DiskCache, EntryFailingValidationIsSilentlyRecompiled)
{
    const std::string dir = tempDir();
    Workload w;
    const sim::RunStats a = runThrough(w, dir);

    // A checksum-valid entry whose program the Simulator would refuse:
    // one operation on a function unit this machine does not have.
    const std::string path = w.entryPath(dir);
    const std::string payload = entryPayload(path);
    exp::ByteReader r(payload);
    const std::string key = r.str();
    sched::CompileResult bad;
    ASSERT_TRUE(exp::readCompileResult(r, &bad));
    ASSERT_FALSE(bad.program.threads.empty());
    ASSERT_FALSE(bad.program.threads[0].instructions.empty());
    ASSERT_FALSE(bad.program.threads[0].instructions[0].slots.empty());
    bad.program.threads[0].instructions[0].slots[0].fu = 999;
    exp::ByteWriter bw;
    bw.str(key);
    exp::writeCompileResult(bw, bad);
    ASSERT_TRUE(exp::atomicWriteFile(path, exp::frame(bw.take())));

    exp::CompileCache::Stats st;
    const sim::RunStats b = runThrough(w, dir, &st);
    EXPECT_EQ(st.diskCorrupt, 1u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_GT(st.compiles, 0u);
    EXPECT_GT(st.diskStores, 0u);
    EXPECT_TRUE(a == b);

    exp::CompileCache::Stats healed;
    runThrough(w, dir, &healed);
    EXPECT_EQ(healed.compiles, 0u);
    EXPECT_EQ(healed.diskCorrupt, 0u);
}

TEST(DiskCache, MutatedEntryPayloadsAreRecompiledOrServedValid)
{
    const std::string dir = tempDir();
    // A small program keeps each recompile cheap; it still has a loop,
    // an array and stores, so every decoder section is exercised.
    const std::string source =
        "(defarray a (8) :int)"
        "(defvar out 0)"
        "(defun main ()"
        "  (for (i 0 8) (aset a i (* i i)))"
        "  (for (i 0 8) (set out (+ out (aref a i)))))";
    const auto machine = config::baseline();
    const auto opts = core::optionsFor(core::SimMode::Coupled);
    const std::string path = exp::CompileCache::entryPath(
        dir, exp::CompileCache::key(source, machine, opts));

    std::string good;
    {
        exp::CompileCache cache;
        cache.setDiskDir(dir);
        exp::ByteWriter gw;
        exp::writeCompileResult(gw,
                                *cache.compile(source, machine, opts));
        good = gw.take();
    }
    const std::string payload = entryPayload(path);

    Rng rng(20261018);
    int recompiled = 0;
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(exp::atomicWriteFile(
            path, exp::frame(testutil::mutateBytes(payload, rng))));
        exp::CompileCache cache;
        cache.setDiskDir(dir);
        const auto served = cache.compile(source, machine, opts);
        const auto st = cache.stats();
        ASSERT_EQ(st.diskHits + st.diskCorrupt, 1u) << i;
        if (st.diskCorrupt) {
            // Rejected: recompiled to exactly the original program.
            ++recompiled;
            EXPECT_EQ(st.compiles, 1u);
            exp::ByteWriter sw;
            exp::writeCompileResult(sw, *served);
            EXPECT_EQ(sw.bytes(), good) << i;
        } else {
            // Served: whatever the mutation changed, the program is
            // one the Simulator accepts.
            EXPECT_EQ(st.compiles, 0u);
            EXPECT_NO_THROW(
                config::validateProgram(served->program, machine))
                << i;
        }
    }
    EXPECT_GT(recompiled, 0);
}

TEST(DiskCache, DisabledCacheBypassesDiskEntirely)
{
    const std::string dir = tempDir();
    Workload w;

    exp::CompileCache cache;
    cache.setEnabled(false);
    cache.setDiskDir(dir);
    cache.compile(w.source, w.machine, w.opts);
    const auto st = cache.stats();
    EXPECT_EQ(st.diskStores, 0u);
    EXPECT_EQ(st.diskHits, 0u);
    std::ifstream entry(w.entryPath(dir));
    EXPECT_FALSE(entry.good());
}

TEST(DiskCache, RunnerWithoutDiskDirWritesNothing)
{
    const std::string dir = tempDir();
    Workload w;
    // diskCacheDir stays empty (the --no-disk-cache path): no entry
    // may appear even though the directory exists.
    exp::ExperimentPlan plan("no-disk");
    plan.addBenchmark(w.machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    exp::SweepRunner runner(ropts);
    runner.run(plan);
    EXPECT_EQ(runner.cache().stats().diskStores, 0u);
    std::ifstream entry(w.entryPath(dir));
    EXPECT_FALSE(entry.good());
}

} // namespace
} // namespace procoup
