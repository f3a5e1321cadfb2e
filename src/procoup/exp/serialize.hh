#ifndef PROCOUP_EXP_SERIALIZE_HH
#define PROCOUP_EXP_SERIALIZE_HH

/**
 * @file
 * Binary serialization for the crash-safe execution layer.
 *
 * One consumer reads this byte format back: the results journal
 * (exp/journal.hh) persists executed sweep outcomes so interrupted
 * sweeps resume instead of re-running. A journal record is a
 * RunOutcome (exp/outcome.hh) plus its point fingerprint, encoded
 * directly: a JSON meta-header for external tooling (label,
 * fingerprint, a reserved always-zero threw byte, error kind), then
 * the binary body — error fields, stats, memory image, symbol table,
 * data-segment size and schedule diagnostics. No instruction stream
 * is stored: a replayed point never re-simulates.
 *
 * The journal moves bytes between processes on the *same* host (same
 * toolchain, same endianness), so the encoding is native-endian
 * little-endian x86-64 with explicit fixed-width fields — simple,
 * dense, and versioned. kFormatVersion gates every reader: a version
 * bump silently invalidates old journals (their points re-execute,
 * never misread). Decoders also range-check lengths and enum
 * fields, so even a checksum-valid payload with garbage inside is
 * rejected rather than decoded into an impossible value.
 *
 * Every persisted artifact is wrapped in a self-delimiting frame:
 *
 *     magic u32 | version u32 | payloadLen u64 | fnv1a64(payload) | payload
 *
 * Truncated frames (a crash mid-append) and corrupted payloads (a
 * flipped bit) both fail the checksum and are discarded by readers;
 * writers publish via temp-file + atomic rename, so a reader never
 * observes a half-written file under a final name.
 */

#include <cstdint>
#include <string>

#include "procoup/exp/outcome.hh"
#include "procoup/sched/compiler.hh"
#include "procoup/sim/stats.hh"

namespace procoup {
namespace exp {

/** Bump on any encoding change: readers reject other versions. */
constexpr std::uint32_t kFormatVersion = 1;

/** Frame magic ("PCFR" little-endian). */
constexpr std::uint32_t kFrameMagic = 0x52464350u;

/** FNV-1a 64-bit over @p data (the frame and entry checksum). */
std::uint64_t fnv1a64(const void* data, std::size_t len);
std::uint64_t fnv1a64(const std::string& s);

/** fnv1a64 rendered as 16 lowercase hex digits (file names, ids). */
std::string fnv1a64Hex(const std::string& s);

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { _bytes.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void str(const std::string& s);

    const std::string& bytes() const { return _bytes; }
    std::string take() { return std::move(_bytes); }

  private:
    std::string _bytes;
};

/** Bounds-checked reader over a byte buffer. Any overrun or malformed
 *  field sets failed() and pins the cursor; callers check once at the
 *  end instead of wrapping every read. */
class ByteReader
{
  public:
    explicit ByteReader(const std::string& bytes) : _bytes(bytes) {}

    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();

    bool failed() const { return _failed; }
    bool atEnd() const { return _pos == _bytes.size(); }
    std::size_t remaining() const { return _bytes.size() - _pos; }

  private:
    bool take(void* out, std::size_t n);

    const std::string& _bytes;
    std::size_t _pos = 0;
    bool _failed = false;
};

/** Wrap @p payload in a checksummed frame (see file header). */
std::string frame(const std::string& payload);

/** Parse one frame starting at @p offset of @p bytes. On success,
 *  returns true, sets @p payload and advances @p offset past the
 *  frame. A truncated, corrupt, or wrong-version frame returns false
 *  (offset unchanged) — the caller treats it as end-of-journal. */
bool readFrame(const std::string& bytes, std::size_t& offset,
               std::string* payload);

/** Frame header size in bytes (magic + version + len + checksum). */
constexpr std::size_t kFrameHeaderSize = 4 + 4 + 8 + 8;

// Component encoders. Readers return false (without throwing) on a
// malformed buffer so callers can fall back to re-execution.
void writeValue(ByteWriter& w, const isa::Value& v);
bool readValue(ByteReader& r, isa::Value* v);

void writeRunStats(ByteWriter& w, const sim::RunStats& s);
bool readRunStats(ByteReader& r, sim::RunStats* s);

/** Write-only: content digests of compiled programs (perfbench)
 *  need no decoder. */
void writeProgram(ByteWriter& w, const isa::Program& p);
void writeCompileResult(ByteWriter& w, const sched::CompileResult& c);

/**
 * One journal record: @p outcome under its point @p fingerprint. The
 * label comes from outcome.point (empty without one). A failed
 * outcome is stored with an empty result.
 */
std::string encodeOutcome(const RunOutcome& outcome,
                          const std::string& fingerprint);

/** Decode a journal record into @p outcome (its point unset) and
 *  @p fingerprint. False for a malformed payload, and for a record
 *  whose reserved threw byte is nonzero or whose error kind names no
 *  current SimErrorKind. */
bool decodeOutcome(const std::string& payload, RunOutcome* outcome,
                   std::string* fingerprint);

/** Write @p bytes to @p path via same-directory temp file + rename;
 *  returns false (and cleans up) on any I/O error. */
bool atomicWriteFile(const std::string& path, const std::string& bytes);

/** Read a whole file; returns false if it cannot be opened. */
bool readWholeFile(const std::string& path, std::string* out);

} // namespace exp
} // namespace procoup

#endif // PROCOUP_EXP_SERIALIZE_HH
