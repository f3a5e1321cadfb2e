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

TEST(Serialize, OutcomeRecordRoundTrip)
{
    exp::OutcomeRecord rec;
    rec.label = "point-a";
    rec.pointFingerprint = "deadbeefdeadbeef";
    rec.failed = true;
    rec.errorKind = 3;
    rec.errorCycle = 12345;
    rec.error = "deadlock at cycle 12345";
    rec.retries = 2;
    rec.compileCached = true;
    rec.wallMs = 1.5;
    rec.stats.cycles = 777;
    rec.memory.push_back(isa::Value::makeInt(9));
    rec.symbols["out"] = isa::Symbol{4, 2};
    rec.memorySize = 64;

    exp::OutcomeRecord back;
    ASSERT_TRUE(
        exp::decodeOutcomeRecord(exp::encodeOutcomeRecord(rec), &back));
    EXPECT_EQ(back.label, rec.label);
    EXPECT_EQ(back.pointFingerprint, rec.pointFingerprint);
    EXPECT_EQ(back.failed, rec.failed);
    EXPECT_EQ(back.errorKind, rec.errorKind);
    EXPECT_EQ(back.errorCycle, rec.errorCycle);
    EXPECT_EQ(back.error, rec.error);
    EXPECT_EQ(back.retries, rec.retries);
    EXPECT_EQ(back.compileCached, rec.compileCached);
    EXPECT_EQ(back.wallMs, rec.wallMs);
    EXPECT_EQ(back.stats.cycles, 777u);
    ASSERT_EQ(back.memory.size(), 1u);
    EXPECT_TRUE(back.memory[0] == rec.memory[0]);
    ASSERT_EQ(back.symbols.count("out"), 1u);
    EXPECT_EQ(back.symbols["out"].base, 4u);
    EXPECT_EQ(back.symbols["out"].size, 2u);
    EXPECT_EQ(back.memorySize, 64u);

    EXPECT_FALSE(exp::decodeOutcomeRecord("garbage", &back));
}

TEST(Serialize, OutcomeRecordDecoderValidatesErrorFields)
{
    exp::OutcomeRecord rec;
    rec.label = "point-a";
    rec.pointFingerprint = "deadbeefdeadbeef";
    rec.failed = true;
    rec.errorKind =
        static_cast<std::uint8_t>(SimErrorKind::InvariantViolation);
    exp::OutcomeRecord back;
    EXPECT_TRUE(
        exp::decodeOutcomeRecord(exp::encodeOutcomeRecord(rec), &back));

    // Kinds past the taxonomy (5..7 were worker-crash, worker-timeout
    // and worker-lost in earlier versions) must not replay as another
    // kind.
    for (int kind = 5; kind < 256; ++kind) {
        rec.errorKind = static_cast<std::uint8_t>(kind);
        EXPECT_FALSE(exp::decodeOutcomeRecord(
            exp::encodeOutcomeRecord(rec), &back))
            << kind;
    }

    // The threw byte is reserved: only 0 decodes.
    rec.errorKind = 0;
    for (int threw = 1; threw < 4; ++threw) {
        rec.threw = static_cast<std::uint8_t>(threw);
        EXPECT_FALSE(exp::decodeOutcomeRecord(
            exp::encodeOutcomeRecord(rec), &back))
            << threw;
    }
}

TEST(Journal, RecordWithRetiredErrorKindReExecutes)
{
    const testutil::TempDir dir("procoup_journal");
    const auto plan = smallPlan();
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        exp::OutcomeRecord rec;
        rec.label = plan.points()[0].label;
        rec.pointFingerprint = exp::pointFingerprint(plan.points()[0]);
        rec.failed = true;
        rec.errorKind = 5;  // worker-crash, before it was retired
        rec.error = "worker process died";
        j.append(rec);
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
    const exp::OutcomeRecord good = exp::makeOutcomeRecord(
        exp::executeSweepPoint(point, cache, exp::RunnerOptions{}),
        exp::pointFingerprint(point));
    ASSERT_EQ(good.stats.opsByFu.size(), fus);
    ASSERT_EQ(good.stats.stallsByCluster.size(), clusters);

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
            exp::OutcomeRecord bad = good;
            mutate(bad.stats);
            j.append(bad);
        }
        exp::RunnerOptions ropts;
        ropts.jobs = 1;
        ropts.journalDir = dir.path();
        const exp::SweepResult res = exp::SweepRunner(ropts).run(plan);
        EXPECT_EQ(res.replayedPoints, 0u);
        EXPECT_FALSE(res.outcomes[0].replayed);
        EXPECT_TRUE(res.outcomes[0].result.stats == good.stats);
    }

    // The unmodified record still replays.
    const testutil::TempDir dir("procoup_journal");
    {
        exp::ResultsJournal j;
        ASSERT_TRUE(j.open(dir.path(), plan));
        j.append(good);
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
    const std::string payload =
        exp::encodeOutcomeRecord(exp::makeOutcomeRecord(
            exp::executeSweepPoint(point, cache, exp::RunnerOptions{}),
            exp::pointFingerprint(point)));

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
        exp::OutcomeRecord rec;
        if (!exp::decodeOutcomeRecord(evil, &rec)) {
            ++rejected;
        } else {
            EXPECT_EQ(rec.threw, 0u);
            EXPECT_LE(rec.errorKind, static_cast<std::uint8_t>(
                                         SimErrorKind::InvariantViolation));
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

    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_TRUE(b.outcomes[i].replayed);
        EXPECT_TRUE(a.outcomes[i].result.stats ==
                    b.outcomes[i].result.stats);
        EXPECT_TRUE(a.outcomes[i].result.memory ==
                    b.outcomes[i].result.memory);
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
        j.append(exp::makeOutcomeRecord(
            one, exp::pointFingerprint(plan.points()[0])));
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
            exp::OutcomeRecord rec;
            rec.label = p.label;
            rec.pointFingerprint = exp::pointFingerprint(p);
            j.append(rec);
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
    for (const auto& p : plan.points())
        EXPECT_NE(j.find(exp::pointFingerprint(p)), nullptr);
}

} // namespace
} // namespace procoup
