/** @file Crash-safe results journal: frame/record round-trips, torn
 *  and corrupted tails, decoder robustness against corrupt payloads
 *  behind valid checksums, fingerprint invalidation, bit-identical
 *  replay with zero recompiles. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "procoup/benchmarks/benchmarks.hh"
#include "procoup/config/presets.hh"
#include "procoup/exp/harness.hh"
#include "procoup/exp/journal.hh"
#include "procoup/exp/plan.hh"
#include "procoup/exp/runner.hh"
#include "procoup/exp/serialize.hh"
#include "test_util.hh"

namespace procoup {
namespace {

exp::ExperimentPlan
smallPlan()
{
    const auto machine = config::baseline();
    exp::ExperimentPlan plan("journal-test");
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Sts);
    plan.addBenchmark(machine, benchmarks::byName("LUD"),
                      core::SimMode::Coupled);
    return plan;
}

TEST(Serialize, FrameRoundTripAndCorruptionDetection)
{
    const std::string payload = "the quick brown fox";
    std::string bytes = exp::frame(payload);
    ASSERT_EQ(bytes.size(), exp::kFrameHeaderSize + payload.size());

    std::size_t offset = 0;
    std::string got;
    ASSERT_TRUE(exp::readFrame(bytes, offset, &got));
    EXPECT_EQ(got, payload);
    EXPECT_EQ(offset, bytes.size());

    // Torn tail: every strict prefix fails without advancing.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::string torn = bytes.substr(0, cut);
        std::size_t off = 0;
        EXPECT_FALSE(exp::readFrame(torn, off, &got)) << cut;
        EXPECT_EQ(off, 0u);
    }

    // A flipped bit anywhere breaks magic, version, length bounds, or
    // the checksum — never yields a wrong payload silently.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string evil = bytes;
        evil[i] = static_cast<char>(evil[i] ^ 0x20);
        std::size_t off = 0;
        if (exp::readFrame(evil, off, &got)) {
            EXPECT_EQ(got, payload) << "flip at byte " << i;
        }
    }

    // Two frames back to back parse in sequence.
    std::string two = exp::frame("a") + exp::frame("bb");
    offset = 0;
    ASSERT_TRUE(exp::readFrame(two, offset, &got));
    EXPECT_EQ(got, "a");
    ASSERT_TRUE(exp::readFrame(two, offset, &got));
    EXPECT_EQ(got, "bb");
    EXPECT_EQ(offset, two.size());
}

/** A fixed executed outcome: the journal body exercises every
 *  field (stats vectors, both value tags, symbols, funcInfo). */
exp::RunOutcome
fixedExecutedOutcome(const exp::SweepPoint& point)
{
    exp::RunOutcome o;
    o.point = &point;
    o.retries = 1;
    o.compileCached = true;
    o.wallMs = 2.25;
    sim::RunStats& st = o.result.stats;
    st.cycles = 618;
    st.totalOps = 5117;
    st.opsByFu = {3, 4};
    st.stallsByFu.resize(2);
    st.stallsByCluster.resize(1);
    st.wbGrantsByCluster = {5};
    st.wbDenialsByCluster = {6};
    st.threadsSpawned = 2;
    o.result.memory = {isa::Value::makeInt(-7), isa::Value::makeFloat(0.5)};
    o.result.compiled.program.symbols["out"] = isa::Symbol{0, 2};
    o.result.compiled.program.memorySize = 2;
    sched::FuncScheduleInfo f;
    f.name = "main";
    f.blockRows = {3, 1};
    f.totalRows = 4;
    f.totalOps = 9;
    f.copiesInserted = 1;
    f.regCount = {5, 2};
    o.result.compiled.funcInfo = {f};
    return o;
}

/** A fixed fail-safe-captured outcome. */
exp::RunOutcome
fixedFailedOutcome(const exp::SweepPoint& point)
{
    exp::RunOutcome o;
    o.point = &point;
    o.failed = true;
    o.errorKind = SimErrorKind::Deadlock;
    o.errorCycle = 300;
    o.error = "deadlock at cycle 300";
    o.retries = 2;
    o.wallMs = 0.5;
    return o;
}

std::string
compileBytes(const sched::CompileResult& c)
{
    exp::ByteWriter w;
    exp::writeCompileResult(w, c);
    return w.take();
}

TEST(Serialize, OutcomeRoundTrip)
{
    exp::SweepPoint point;
    point.label = "point-a";
    const exp::RunOutcome executed = fixedExecutedOutcome(point);

    exp::RunOutcome back;
    std::string fp;
    ASSERT_TRUE(exp::decodeOutcome(
        exp::encodeOutcome(executed, "deadbeefdeadbeef"), &back, &fp));
    EXPECT_EQ(fp, "deadbeefdeadbeef");
    EXPECT_EQ(back.point, nullptr);
    EXPECT_FALSE(back.failed);
    EXPECT_EQ(back.retries, 1);
    EXPECT_TRUE(back.compileCached);
    EXPECT_EQ(back.wallMs, 2.25);
    EXPECT_TRUE(back.result.stats == executed.result.stats);
    EXPECT_TRUE(back.result.memory == executed.result.memory);
    EXPECT_EQ(compileBytes(back.result.compiled),
              compileBytes(executed.result.compiled));

    // A failed outcome keeps its error fields and stores an empty
    // result, whatever its in-memory result held.
    exp::RunOutcome failed = fixedFailedOutcome(point);
    failed.result.stats.cycles = 777;
    ASSERT_TRUE(exp::decodeOutcome(exp::encodeOutcome(failed, "f00d"),
                                   &back, &fp));
    EXPECT_EQ(fp, "f00d");
    EXPECT_TRUE(back.failed);
    EXPECT_EQ(back.errorKind, SimErrorKind::Deadlock);
    EXPECT_EQ(back.errorCycle, 300u);
    EXPECT_EQ(back.error, failed.error);
    EXPECT_EQ(back.retries, 2);
    EXPECT_FALSE(back.compileCached);
    EXPECT_TRUE(back.result.stats == sim::RunStats{});
    EXPECT_TRUE(back.result.memory.empty());
    EXPECT_TRUE(back.result.compiled.program.symbols.empty());

    EXPECT_FALSE(exp::decodeOutcome("garbage", &back, &fp));
}

/** Journals on disk use this encoding (kFormatVersion 1): the digests
 *  of the encoded fixed outcomes must not change without a version
 *  bump. */
TEST(Serialize, OutcomeEncodingIsPinned)
{
    exp::SweepPoint a;
    a.label = "point-a";
    exp::SweepPoint b;
    b.label = "point-b";
    EXPECT_EQ(exp::fnv1a64(exp::encodeOutcome(fixedExecutedOutcome(a),
                                              "0123456789abcdef")),
              0x86fbb0b3f3098815ull);
    EXPECT_EQ(exp::fnv1a64(exp::encodeOutcome(fixedFailedOutcome(b),
                                              "fedcba9876543210")),
              0xcbc6ea086c9e3494ull);
}

TEST(Serialize, OutcomeDecoderValidatesErrorFields)
{
    exp::SweepPoint point;
    point.label = "point-a";
    exp::RunOutcome o;
    o.point = &point;
    o.failed = true;
    o.errorKind = SimErrorKind::InvariantViolation;
    exp::RunOutcome back;
    std::string fp;
    const std::string good = exp::encodeOutcome(o, "deadbeefdeadbeef");
    EXPECT_TRUE(exp::decodeOutcome(good, &back, &fp));

    // Kinds past the taxonomy (5..7 were worker-crash, worker-timeout
    // and worker-lost in earlier versions) must not replay as another
    // kind.
    for (int kind = 5; kind < 256; ++kind) {
        o.errorKind = static_cast<SimErrorKind>(kind);
        EXPECT_FALSE(exp::decodeOutcome(
            exp::encodeOutcome(o, "deadbeefdeadbeef"), &back, &fp))
            << kind;
    }

    // The threw byte, after the meta-header, label and fingerprint,
    // is reserved: only 0 decodes.
    exp::ByteReader r(good);
    r.str();
    r.str();
    r.str();
    const std::size_t threwAt = good.size() - r.remaining();
    ASSERT_EQ(good[threwAt], 0);
    for (int threw = 1; threw < 4; ++threw) {
        std::string evil = good;
        evil[threwAt] = static_cast<char>(threw);
        EXPECT_FALSE(exp::decodeOutcome(evil, &back, &fp)) << threw;
    }
}

TEST(Journal, RecordWithRetiredErrorKindReExecutes)
{
    const testutil::TempDir dir("procoup_journal");
    const auto plan = smallPlan();
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        exp::RunOutcome o;
        o.point = &plan.points()[0];
        o.failed = true;
        // worker-crash, before it was retired
        o.errorKind = static_cast<SimErrorKind>(5);
        o.error = "worker process died";
        j.append(o, exp::pointFingerprint(plan.points()[0]));
    }

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    const exp::SweepResult res = exp::SweepRunner(ropts).run(plan);
    EXPECT_EQ(res.replayedPoints, 0u);
    EXPECT_FALSE(res.outcomes[0].replayed);
    EXPECT_FALSE(res.outcomes[0].failed);
    EXPECT_EQ(res.failedCount(), 0u);
}

/** A checksum-valid record whose stats vectors do not fit the
 *  point's machine (one entry per FU, one per cluster) is treated as
 *  absent: the point re-executes rather than replaying stats the
 *  renderers would index past the machine's units. */
TEST(Journal, RecordWithMisshapenStatsReExecutes)
{
    const auto plan = smallPlan();
    const exp::SweepPoint& point = plan.points()[0];
    const std::size_t fus =
        static_cast<std::size_t>(point.machine.numFus());
    const std::size_t clusters = point.machine.clusters.size();
    exp::CompileCache cache;
    const exp::RunOutcome good =
        exp::executeSweepPoint(point, cache, exp::RunnerOptions{});
    const std::string fp = exp::pointFingerprint(point);
    ASSERT_EQ(good.result.stats.opsByFu.size(), fus);
    ASSERT_EQ(good.result.stats.stallsByCluster.size(), clusters);

    using Mutate = void (*)(sim::RunStats&);
    const Mutate mutations[] = {
        [](sim::RunStats& s) { s.opsByFu.push_back(0); },
        [](sim::RunStats& s) { s.opsByFu.pop_back(); },
        [](sim::RunStats& s) { s.stallsByFu.push_back({}); },
        [](sim::RunStats& s) { s.stallsByFu.pop_back(); },
        [](sim::RunStats& s) { s.stallsByCluster.push_back({}); },
        [](sim::RunStats& s) { s.wbGrantsByCluster.pop_back(); },
        [](sim::RunStats& s) { s.wbDenialsByCluster.push_back(0); },
    };
    for (const Mutate mutate : mutations) {
        const testutil::TempDir dir("procoup_journal");
        {
            exp::ResultsJournal j;
            ASSERT_TRUE(j.open(dir.path(), plan));
            exp::RunOutcome bad = good;
            mutate(bad.result.stats);
            j.append(bad, fp);
        }
        exp::RunnerOptions ropts;
        ropts.jobs = 1;
        ropts.journalDir = dir.path();
        const exp::SweepResult res = exp::SweepRunner(ropts).run(plan);
        EXPECT_EQ(res.replayedPoints, 0u);
        EXPECT_FALSE(res.outcomes[0].replayed);
        EXPECT_TRUE(res.outcomes[0].result.stats == good.result.stats);
    }

    // The unmodified record still replays.
    const testutil::TempDir dir("procoup_journal");
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        j.append(good, fp);
    }
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    const exp::SweepResult res = exp::SweepRunner(ropts).run(plan);
    EXPECT_EQ(res.replayedPoints, 1u);
    EXPECT_TRUE(res.outcomes[0].replayed);
}

TEST(Journal, MutatedRecordPayloadsAreRejectedOrDecodeSafely)
{
    const auto plan = smallPlan();
    const exp::SweepPoint& point = plan.points()[0];
    exp::CompileCache cache;
    const std::string payload = exp::encodeOutcome(
        exp::executeSweepPoint(point, cache, exp::RunnerOptions{}),
        exp::pointFingerprint(point));

    const testutil::TempDir dir("procoup_journal");
    std::string wal;
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        wal = j.walPath();
    }

    // Corrupt payload bytes, re-frame them with a valid checksum and
    // load: the decoder must reject the record or yield one inside
    // the taxonomy — never crash, over-allocate or trip a sanitizer.
    Rng rng(20261018);
    int rejected = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::string evil = testutil::mutateBytes(payload, rng);
        exp::RunOutcome o;
        std::string fp;
        if (!exp::decodeOutcome(evil, &o, &fp)) {
            ++rejected;
        } else {
            EXPECT_LE(static_cast<int>(o.errorKind),
                      static_cast<int>(SimErrorKind::InvariantViolation));
        }
        if (i % 20 == 0) {
            // The journal loader over the same bytes.
            ASSERT_TRUE(exp::atomicWriteFile(wal, exp::frame(evil)));
            exp::ResultsJournal j;
            ASSERT_TRUE(j.open(dir.path(), plan));
            EXPECT_LE(j.loadedCount(), 1u);
        }
    }
    EXPECT_GT(rejected, 0);
}

TEST(Journal, ReplayIsBitIdenticalWithZeroCompiles)
{
    const testutil::TempDir dir("procoup_journal");
    const auto plan = smallPlan();

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    exp::SweepRunner first(ropts);
    const exp::SweepResult a = first.run(plan);
    EXPECT_EQ(a.replayedPoints, 0u);
    EXPECT_GT(first.cache().stats().misses, 0u);

    // The journal finalized: every point is loadable from the dir.
    exp::ResultsJournal peek;
    ASSERT_TRUE(peek.open(dir.path(), plan));
    EXPECT_EQ(peek.loadedCount(), plan.size());

    exp::SweepRunner second(ropts);
    const exp::SweepResult b = second.run(plan);
    EXPECT_EQ(b.replayedPoints, plan.size());
    // Zero recompiles: replay never touches the compiler.
    EXPECT_EQ(second.cache().stats().misses, 0u);

    // An executed and a replayed outcome carry the same result: stats,
    // memory, symbols, data-segment size and funcInfo, and neither
    // holds an instruction stream (the CompileCache owns programs).
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        SCOPED_TRACE(plan.points()[i].label);
        const core::RunResult& ra = a.outcomes[i].result;
        const core::RunResult& rb = b.outcomes[i].result;
        EXPECT_FALSE(a.outcomes[i].replayed);
        EXPECT_TRUE(b.outcomes[i].replayed);
        EXPECT_EQ(b.outcomes[i].point, &plan.points()[i]);
        EXPECT_TRUE(ra.stats == rb.stats);
        EXPECT_TRUE(ra.memory == rb.memory);
        EXPECT_FALSE(ra.compiled.program.symbols.empty());
        EXPECT_GT(ra.compiled.program.memorySize, 0u);
        EXPECT_FALSE(ra.compiled.funcInfo.empty());
        EXPECT_TRUE(ra.compiled.program.threads.empty());
        EXPECT_TRUE(rb.compiled.program.threads.empty());
        EXPECT_EQ(compileBytes(ra.compiled), compileBytes(rb.compiled));
    }
    // The render-facing JSON is byte-identical too.
    EXPECT_EQ(exp::formatStatsBundle(a), exp::formatStatsBundle(b));
}

TEST(Journal, PartialJournalExecutesOnlyTheRemainder)
{
    const testutil::TempDir dir("procoup_journal");
    const auto plan = smallPlan();

    // Record only the first point, as an interrupted sweep would.
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        exp::CompileCache cache;
        exp::RunnerOptions popts;
        const exp::RunOutcome one =
            exp::executeSweepPoint(plan.points()[0], cache, popts);
        j.append(one, exp::pointFingerprint(plan.points()[0]));
        // No finalize: the WAL alone must carry the resume.
    }

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    exp::SweepRunner runner(ropts);
    const exp::SweepResult res = runner.run(plan);
    EXPECT_EQ(res.replayedPoints, 1u);
    EXPECT_TRUE(res.outcomes[0].replayed);
    EXPECT_FALSE(res.outcomes[1].replayed);
    EXPECT_FALSE(res.outcomes[2].replayed);
}

TEST(Journal, TornTailDiscardsOnlyTheTornRecord)
{
    const testutil::TempDir dir("procoup_journal");
    const auto plan = smallPlan();

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    exp::SweepRunner(ropts).run(plan);

    // Simulate a crash mid-append: chop the finalized journal's last
    // record in half and re-open. The prefix records must survive.
    exp::ResultsJournal peek;
    ASSERT_TRUE(peek.open(dir.path(), plan));
    const std::string path = peek.journalPath();
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(path, &bytes));
    ASSERT_GT(bytes.size(), 32u);
    const std::string torn = bytes.substr(0, bytes.size() - 17);
    ASSERT_TRUE(exp::atomicWriteFile(path, torn));

    exp::SweepRunner resumed(ropts);
    const exp::SweepResult res = resumed.run(plan);
    EXPECT_EQ(res.replayedPoints, plan.size() - 1);
    EXPECT_EQ(res.failedCount(), 0u);
}

/** A crash mid-append leaves a torn frame at the end of the WAL. The
 *  resumed session must append after the last good frame, not after
 *  the torn bytes, or every record it journals is unreachable. */
TEST(Journal, ResumeAfterTornWalTailKeepsLaterRecords)
{
    const testutil::TempDir dir("procoup_journal");
    const auto plan = smallPlan();
    exp::CompileCache cache;
    const exp::RunOutcome first =
        exp::executeSweepPoint(plan.points()[0], cache, {});
    std::string wal;
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        j.append(first, exp::pointFingerprint(plan.points()[0]));
        j.close();
        wal = j.walPath();
    }
    std::string bytes;
    ASSERT_TRUE(exp::readWholeFile(wal, &bytes));
    const std::string torn = exp::frame(
        exp::encodeOutcome(first, exp::pointFingerprint(plan.points()[1])));
    ASSERT_TRUE(exp::atomicWriteFile(
        wal, bytes + torn.substr(0, torn.size() / 2)));

    // Resume: the first point replays, the other two execute and are
    // journaled; the published journal then holds all three.
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    const exp::SweepResult res = exp::SweepRunner(ropts).run(plan);
    EXPECT_EQ(res.replayedPoints, 1u);
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        EXPECT_EQ(j.loadedCount(), plan.size());
    }
    const exp::SweepResult again = exp::SweepRunner(ropts).run(plan);
    EXPECT_EQ(again.replayedPoints, plan.size());
}

TEST(Journal, FingerprintChangeInvalidatesOnlyThatPoint)
{
    const testutil::TempDir dir("procoup_journal");
    auto plan = smallPlan();

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    exp::SweepRunner(ropts).run(plan);

    // Tightening one point's cycle budget changes its fingerprint
    // (and the plan's, landing in fresh journal files) — nothing may
    // replay against the stale record set even though labels match.
    const std::string before =
        exp::pointFingerprint(plan.points()[1]);
    plan.mutablePoints()[1].simOptions.limits.maxCycles = 100000000;
    EXPECT_NE(before, exp::pointFingerprint(plan.points()[1]));

    exp::SweepRunner again(ropts);
    const exp::SweepResult res = again.run(plan);
    EXPECT_EQ(res.replayedPoints, 0u);
}

TEST(Journal, TracerPointsAreNeverJournaled)
{
    const testutil::TempDir dir("procoup_journal");
    const auto machine = config::baseline();

    int events = 0;
    exp::ExperimentPlan plan("tracer");
    plan.addBenchmark(machine, benchmarks::byName("Matrix"),
                      core::SimMode::Coupled);
    plan.mutablePoints()[0].tracer =
        [&](const sim::TraceEvent&) { ++events; };

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.journalDir = dir.path();
    exp::SweepRunner(ropts).run(plan);
    ASSERT_GT(events, 0);

    // Re-run: the tracer must fire again — a replay would silently
    // drop the observational side effect.
    events = 0;
    exp::SweepRunner again(ropts);
    const exp::SweepResult res = again.run(plan);
    EXPECT_EQ(res.replayedPoints, 0u);
    EXPECT_GT(events, 0);
}

TEST(Journal, FailSafeErrorRecordsReplayToo)
{
    const testutil::TempDir dir("procoup_journal");
    auto machine = config::baseline();
    machine.deadlockCycleLimit = 300;

    exp::ExperimentPlan plan("failsafe-journal");
    plan.addSource("deadlock-point", machine,
                   "(defarray c (1) :int :empty)"
                   "(defvar out 0)"
                   "(defun main () (set out (take c 0)))",
                   core::SimMode::Coupled);

    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.failSafe = true;
    ropts.journalDir = dir.path();
    const exp::SweepResult a = exp::SweepRunner(ropts).run(plan);
    ASSERT_EQ(a.failedCount(), 1u);

    const exp::SweepResult b = exp::SweepRunner(ropts).run(plan);
    EXPECT_EQ(b.replayedPoints, 1u);
    EXPECT_EQ(b.failedCount(), 1u);
    EXPECT_EQ(b.outcomes[0].errorKind, a.outcomes[0].errorKind);
    EXPECT_EQ(b.outcomes[0].errorCycle, a.outcomes[0].errorCycle);
    EXPECT_EQ(b.outcomes[0].error, a.outcomes[0].error);
}

TEST(Journal, FinalizePromotesDrainedWalWithoutAppends)
{
    const testutil::TempDir dir("procoup_journal");
    const exp::ExperimentPlan plan = smallPlan();

    // First session: journal every point, then close() without
    // finalizing — the state a graceful SIGTERM drain exits in. The
    // complete record set now lives only in the WAL.
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        for (const auto& p : plan.points()) {
            exp::RunOutcome o;
            o.point = &p;
            j.append(o, exp::pointFingerprint(p));
        }
        j.close();
        std::ifstream wal(j.walPath());
        EXPECT_TRUE(wal.good());
    }

    // Second session: full replay, zero appends, finalize. The
    // records must survive as the finalized journal — not be deleted
    // along with the "empty" WAL.
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        EXPECT_EQ(j.loadedCount(), plan.size());
        j.finalize();
        std::ifstream journal(j.journalPath());
        EXPECT_TRUE(journal.good());
        std::ifstream wal(j.walPath());
        EXPECT_FALSE(wal.good());
    }

    // Third session still replays everything.
    exp::ResultsJournal j;
    ASSERT_TRUE(j.open(dir.path(), plan));
    EXPECT_EQ(j.loadedCount(), plan.size());
    for (const auto& p : plan.points()) {
        exp::RunOutcome o;
        EXPECT_TRUE(j.find(exp::pointFingerprint(p), &o));
    }
}

} // namespace
} // namespace procoup
