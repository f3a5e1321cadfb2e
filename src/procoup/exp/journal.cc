#include "procoup/exp/journal.hh"

#include <sys/stat.h>
#include <unistd.h>

#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

std::string
pointFingerprint(const SweepPoint& point)
{
    const sim::SimOptions& so = point.simOptions;
    const std::string material = strCat(
        point.label, "|", point.machine.fingerprint(), "|mode=",
        static_cast<int>(point.mode), "|smode=",
        static_cast<int>(point.options.mode), "|clones=",
        point.options.forkClones, "|opt=", point.options.runOptimizer,
        "|verify=", point.verifyBenchmark, "|faults=",
        so.faults.enabled ? so.faults.toString() : "off", "|cap=",
        so.limits.maxCycles, "|ddl=", so.limits.wallClockDeadlineMs,
        "|san=", so.sanitizeEveryCycles, "|fmt=", kFormatVersion, "|",
        point.source);
    return fnv1a64Hex(material);
}

std::string
planFingerprint(const ExperimentPlan& plan)
{
    std::string material = strCat("plan=", plan.name());
    for (const auto& p : plan.points()) {
        material += '|';
        material += pointFingerprint(p);
    }
    return fnv1a64Hex(material);
}

ResultsJournal::~ResultsJournal()
{
    if (_wal)
        std::fclose(_wal);
}

std::size_t
ResultsJournal::loadFrom(const std::string& path)
{
    std::string bytes;
    if (!readWholeFile(path, &bytes))
        return 0;
    std::size_t offset = 0;
    std::string payload;
    // Stop at the first bad frame: everything after a torn or corrupt
    // record is unreachable (frames are self-delimiting), and a
    // discarded point simply re-executes.
    while (readFrame(bytes, offset, &payload)) {
        RunOutcome o;
        std::string fp;
        if (decodeOutcome(payload, &o, &fp))
            _records[fp] = std::move(payload);
    }
    return offset;
}

bool
ResultsJournal::open(const std::string& dir, const ExperimentPlan& plan)
{
    ::mkdir(dir.c_str(), 0777);  // best effort; openability decides

    const std::string fp = planFingerprint(plan);
    _walPath = strCat(dir, "/", fp, ".wal");
    _journalPath = strCat(dir, "/", fp, ".journal");

    const std::size_t before = _records.size();
    loadFrom(_journalPath);
    _loadedFromFinalized = _records.size() > before;
    const std::size_t afterJournal = _records.size();
    const std::size_t walGood = loadFrom(_walPath);
    _loadedFromWal = _records.size() > afterJournal;

    // Cut a torn tail (a crash mid-append) off before appending: left
    // between the loaded records and this session's, it would hide
    // every later record from the next load.
    _wal = std::fopen(_walPath.c_str(), "ab");
    if (_wal &&
        ::ftruncate(::fileno(_wal), static_cast<off_t>(walGood)) != 0) {
        std::fclose(_wal);
        _wal = nullptr;
    }
    if (!_wal) {
        _records.clear();
        return false;
    }

    // A human-readable sidecar so a journal directory is inspectable
    // without the binary decoder (also validated by
    // scripts/check_stats_schema.py --journal-dir).
    const std::string meta = strCat(
        "{\"schema\": \"procoup-journal/1\", \"plan\": ",
        jsonQuote(plan.name()), ", \"fingerprint\": ", jsonQuote(fp),
        ", \"points\": ", plan.size(), "}\n");
    const std::string metaPath = strCat(dir, "/", fp, ".meta.json");
    std::string existing;
    if (!readWholeFile(metaPath, &existing) || existing != meta)
        atomicWriteFile(metaPath, meta);
    return true;
}

bool
ResultsJournal::find(const std::string& fingerprint,
                     RunOutcome* outcome) const
{
    const auto it = _records.find(fingerprint);
    std::string fp;
    return it != _records.end() && decodeOutcome(it->second, outcome, &fp);
}

void
ResultsJournal::append(const RunOutcome& outcome,
                       const std::string& fingerprint)
{
    if (!_wal)
        return;
    std::string payload = encodeOutcome(outcome, fingerprint);
    const std::string framed = frame(payload);
    std::lock_guard<std::mutex> lock(_mu);
    // A single fwrite keeps the frame contiguous; the flush makes the
    // record durable against SIGKILL before the next point completes.
    std::fwrite(framed.data(), 1, framed.size(), _wal);
    std::fflush(_wal);
    _records[fingerprint] = std::move(payload);
    _appended = true;
}

void
ResultsJournal::finalize()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (!_wal)
        return;
    std::fclose(_wal);
    _wal = nullptr;

    if (!_appended && !_loadedFromWal) {
        // Fully replayed from a finalized journal: nothing new to
        // publish; just drop the empty WAL opened for appending.
        std::remove(_walPath.c_str());
    } else if (_appended && !_loadedFromFinalized) {
        std::rename(_walPath.c_str(), _journalPath.c_str());
    } else {
        // Publish the union of both files, then drop the WAL. Either
        // a resume appended past an already-finalized journal, or
        // every record came back without executing anything but some
        // live only in the WAL — e.g. a graceful SIGTERM drain
        // journaled the whole plan and exited before finalizing, so
        // removing the WAL alone would delete the only copy. Crash
        // windows are safe: both files survive until the rename
        // lands, and the loader unions them.
        std::string merged;
        for (const auto& [fp, payload] : _records)
            merged += frame(payload);
        if (atomicWriteFile(_journalPath, merged))
            std::remove(_walPath.c_str());
    }
}

void
ResultsJournal::close()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (!_wal)
        return;
    std::fflush(_wal);
    std::fclose(_wal);
    _wal = nullptr;
}

} // namespace exp
} // namespace procoup
