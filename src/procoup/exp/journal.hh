#ifndef PROCOUP_EXP_JOURNAL_HH
#define PROCOUP_EXP_JOURNAL_HH

/**
 * @file
 * Write-ahead results journal: durable sweep execution.
 *
 * A journaled sweep appends one checksummed, self-delimiting frame
 * (exp/serialize.hh) per *completed* point to
 *
 *     <dir>/<plan-fingerprint>.wal
 *
 * flushing after every append. Killing the process at any instant
 * loses at most the record being appended: the torn tail fails its
 * length/checksum check on the next open and is cut off before that
 * session appends, exactly the crash-consistency discipline of a
 * write-ahead log. When every
 * journalable point of the plan has a record, finalize() publishes
 * the file as <plan-fingerprint>.journal via atomic rename (merging
 * an existing finalized journal when a resumed plan appended more).
 *
 * Rerunning the same sweep with the same --journal directory replays
 * every recorded point bit-identically — stats, memory, symbol table,
 * error records — and executes only the remainder. Matching is by
 * point fingerprint (label, machine fingerprint, source, compile
 * options, fault plan, budgets, sanitizer cadence), so editing any
 * input of a point silently invalidates only that point's record.
 *
 * Points with a trace sink attached are never journaled or replayed:
 * tracing is an observational side effect a replay cannot reproduce.
 */

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "procoup/exp/plan.hh"
#include "procoup/exp/serialize.hh"

namespace procoup {
namespace exp {

/** The identity a journal record must match to be replayed for a
 *  point: every input that can change its outcome. */
std::string pointFingerprint(const SweepPoint& point);

/** The identity of a whole plan (keys the journal file name): the
 *  plan name plus every point fingerprint, in order. */
std::string planFingerprint(const ExperimentPlan& plan);

class ResultsJournal
{
  public:
    ~ResultsJournal();

    ResultsJournal() = default;
    ResultsJournal(const ResultsJournal&) = delete;
    ResultsJournal& operator=(const ResultsJournal&) = delete;

    /**
     * Bind to @p dir (created if missing) and load every valid record
     * for @p plan from the finalized journal and/or the write-ahead
     * file. Returns false (journal disabled, never fatal) if the
     * directory cannot be created or the WAL cannot be opened for
     * appending — a sweep must still run when its journal medium is
     * broken.
     */
    bool open(const std::string& dir, const ExperimentPlan& plan);

    bool isOpen() const { return _wal != nullptr; }

    /** Decode the record for @p fingerprint into @p outcome (its
     *  point unset); false if there is none. */
    bool find(const std::string& fingerprint, RunOutcome* outcome) const;

    /** Number of records loaded at open(). */
    std::size_t loadedCount() const { return _records.size(); }

    /** Append + flush one completed point's @p outcome under its
     *  point @p fingerprint (thread-safe). */
    void append(const RunOutcome& outcome, const std::string& fingerprint);

    /**
     * Publish the WAL as the finalized journal via atomic rename.
     * Call only when every journalable point has a record; a crash
     * before finalize leaves the WAL, which resumes identically.
     */
    void finalize();

    /** Flush and close the WAL without finalizing: the clean,
     *  resumable shutdown path (SIGTERM/SIGINT drain exits via
     *  std::exit, which skips destructors). Idempotent. */
    void close();

    /** Paths (exposed for tests and tooling). */
    const std::string& walPath() const { return _walPath; }
    const std::string& journalPath() const { return _journalPath; }

  private:
    /** Load @p path's valid records; returns the byte length of its
     *  readable frame prefix (0 if it cannot be read). */
    std::size_t loadFrom(const std::string& path);

    /** Point fingerprint -> its encoded record (frame payload). */
    std::map<std::string, std::string> _records;
    std::string _walPath;
    std::string _journalPath;
    std::FILE* _wal = nullptr;
    bool _loadedFromFinalized = false;
    bool _loadedFromWal = false;
    bool _appended = false;
    std::mutex _mu;
};

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_JOURNAL_HH
