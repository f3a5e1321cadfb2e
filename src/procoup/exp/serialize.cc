#include "procoup/exp/serialize.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "procoup/exp/plan.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace exp {

std::uint64_t
fnv1a64(const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a64(const std::string& s)
{
    return fnv1a64(s.data(), s.size());
}

std::string
fnv1a64Hex(const std::string& s)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(s)));
    return buf;
}

void
ByteWriter::u16(std::uint16_t v)
{
    char b[2];
    std::memcpy(b, &v, 2);
    _bytes.append(b, 2);
}

void
ByteWriter::u32(std::uint32_t v)
{
    char b[4];
    std::memcpy(b, &v, 4);
    _bytes.append(b, 4);
}

void
ByteWriter::u64(std::uint64_t v)
{
    char b[8];
    std::memcpy(b, &v, 8);
    _bytes.append(b, 8);
}

void
ByteWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
}

void
ByteWriter::str(const std::string& s)
{
    u64(s.size());
    _bytes.append(s);
}

bool
ByteReader::take(void* out, std::size_t n)
{
    if (_failed || _bytes.size() - _pos < n) {
        _failed = true;
        return false;
    }
    std::memcpy(out, _bytes.data() + _pos, n);
    _pos += n;
    return true;
}

std::uint8_t
ByteReader::u8()
{
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
}

std::uint16_t
ByteReader::u16()
{
    std::uint16_t v = 0;
    take(&v, 2);
    return v;
}

std::uint32_t
ByteReader::u32()
{
    std::uint32_t v = 0;
    take(&v, 4);
    return v;
}

std::uint64_t
ByteReader::u64()
{
    std::uint64_t v = 0;
    take(&v, 8);
    return v;
}

double
ByteReader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

std::string
ByteReader::str()
{
    const std::uint64_t n = u64();
    if (_failed || _bytes.size() - _pos < n) {
        _failed = true;
        return {};
    }
    std::string s(_bytes, _pos, n);
    _pos += n;
    return s;
}

std::string
frame(const std::string& payload)
{
    ByteWriter w;
    w.u32(kFrameMagic);
    w.u32(kFormatVersion);
    w.u64(payload.size());
    w.u64(fnv1a64(payload));
    std::string out = w.take();
    out += payload;
    return out;
}

bool
readFrame(const std::string& bytes, std::size_t& offset,
          std::string* payload)
{
    if (bytes.size() - offset < kFrameHeaderSize ||
        offset > bytes.size())
        return false;
    std::uint32_t magic, version;
    std::uint64_t len, sum;
    std::memcpy(&magic, bytes.data() + offset, 4);
    std::memcpy(&version, bytes.data() + offset + 4, 4);
    std::memcpy(&len, bytes.data() + offset + 8, 8);
    std::memcpy(&sum, bytes.data() + offset + 16, 8);
    if (magic != kFrameMagic || version != kFormatVersion)
        return false;
    if (bytes.size() - offset - kFrameHeaderSize < len)
        return false;  // torn tail: crash mid-append
    const char* body = bytes.data() + offset + kFrameHeaderSize;
    if (fnv1a64(body, len) != sum)
        return false;  // corrupt payload
    payload->assign(body, len);
    offset += kFrameHeaderSize + len;
    return true;
}

void
writeValue(ByteWriter& w, const isa::Value& v)
{
    w.b(v.isFloat());
    if (v.isFloat())
        w.f64(v.rawFloat());
    else
        w.i64(v.rawInt());
}

bool
readValue(ByteReader& r, isa::Value* v)
{
    if (r.b())
        *v = isa::Value::makeFloat(r.f64());
    else
        *v = isa::Value::makeInt(r.i64());
    return !r.failed();
}

namespace {

void
writeStallCounts(ByteWriter& w, const sim::StallCounts& c)
{
    for (const auto& v : c)
        w.u64(v);
}

bool
readStallCounts(ByteReader& r, sim::StallCounts* c)
{
    for (auto& v : *c)
        v = r.u64();
    return !r.failed();
}

// Vector length guard: every element encodes to at least one byte, so
// a length beyond the unread bytes is corrupt — reject it before it
// turns into a multi-gigabyte allocation.
bool
checkedSize(ByteReader& r, std::uint64_t n)
{
    return !r.failed() && n <= r.remaining();
}

} // namespace

void
writeRunStats(ByteWriter& w, const sim::RunStats& s)
{
    w.u64(s.cycles);
    for (const auto& v : s.opsByUnit)
        w.u64(v);
    w.u64(s.opsByFu.size());
    for (const auto& v : s.opsByFu)
        w.u64(v);
    w.u64(s.totalOps);
    w.u64(s.memAccesses);
    w.u64(s.memHits);
    w.u64(s.memMisses);
    w.u64(s.memParked);
    w.u64(s.memParkedCycles);
    w.u64(s.memBankDelayCycles);
    w.u64(s.opCacheHits);
    w.u64(s.opCacheMisses);
    w.u64(s.opCacheLineWaitCycles);
    w.u64(s.writebacks);
    w.u64(s.writebackStallCycles);
    w.u64(s.remoteWrites);
    w.u64(s.wbGrantsByCluster.size());
    for (const auto& v : s.wbGrantsByCluster)
        w.u64(v);
    w.u64(s.wbDenialsByCluster.size());
    for (const auto& v : s.wbDenialsByCluster)
        w.u64(v);
    w.u64(s.stallsByFu.size());
    for (const auto& c : s.stallsByFu)
        writeStallCounts(w, c);
    w.u64(s.stallsByCluster.size());
    for (const auto& c : s.stallsByCluster)
        writeStallCounts(w, c);
    writeStallCounts(w, s.stallsTotal);
    w.u64(s.threadsSpawned);
    w.u32(static_cast<std::uint32_t>(s.peakActiveThreads));
    w.u64(s.threads.size());
    for (const auto& t : s.threads) {
        w.str(t.name);
        w.u64(t.spawnCycle);
        w.u64(t.endCycle);
        w.u64(t.opsIssued);
        writeStallCounts(w, t.stalls);
    }
    w.u64(s.marks.size());
    for (const auto& m : s.marks) {
        w.u32(static_cast<std::uint32_t>(m.thread));
        w.i64(m.id);
        w.u64(m.cycle);
    }
    w.b(s.faultsEnabled);
    w.u64(s.faults.memJitterEvents);
    w.u64(s.faults.memJitterCycles);
    w.u64(s.faults.memBurstEvents);
    w.u64(s.faults.memBurstAccesses);
    w.u64(s.faults.memBurstCycles);
    w.u64(s.faults.bankStormEvents);
    w.u64(s.faults.bankStormDelayCycles);
    w.u64(s.faults.fuBubbleEvents);
    w.u64(s.faults.fuBubbleCycles);
    w.u64(s.faults.opcacheFlushes);
    w.u64(s.faults.spawnDelayEvents);
    w.u64(s.faults.spawnDelayCycles);
}

bool
readRunStats(ByteReader& r, sim::RunStats* s)
{
    s->cycles = r.u64();
    for (auto& v : s->opsByUnit)
        v = r.u64();
    std::uint64_t n = r.u64();
    if (!checkedSize(r, n))
        return false;
    s->opsByFu.resize(n);
    for (auto& v : s->opsByFu)
        v = r.u64();
    s->totalOps = r.u64();
    s->memAccesses = r.u64();
    s->memHits = r.u64();
    s->memMisses = r.u64();
    s->memParked = r.u64();
    s->memParkedCycles = r.u64();
    s->memBankDelayCycles = r.u64();
    s->opCacheHits = r.u64();
    s->opCacheMisses = r.u64();
    s->opCacheLineWaitCycles = r.u64();
    s->writebacks = r.u64();
    s->writebackStallCycles = r.u64();
    s->remoteWrites = r.u64();
    n = r.u64();
    if (!checkedSize(r, n))
        return false;
    s->wbGrantsByCluster.resize(n);
    for (auto& v : s->wbGrantsByCluster)
        v = r.u64();
    n = r.u64();
    if (!checkedSize(r, n))
        return false;
    s->wbDenialsByCluster.resize(n);
    for (auto& v : s->wbDenialsByCluster)
        v = r.u64();
    n = r.u64();
    if (!checkedSize(r, n))
        return false;
    s->stallsByFu.resize(n);
    for (auto& c : s->stallsByFu)
        readStallCounts(r, &c);
    n = r.u64();
    if (!checkedSize(r, n))
        return false;
    s->stallsByCluster.resize(n);
    for (auto& c : s->stallsByCluster)
        readStallCounts(r, &c);
    readStallCounts(r, &s->stallsTotal);
    s->threadsSpawned = r.u64();
    s->peakActiveThreads = static_cast<int>(r.u32());
    n = r.u64();
    if (!checkedSize(r, n))
        return false;
    s->threads.resize(n);
    for (auto& t : s->threads) {
        t.name = r.str();
        t.spawnCycle = r.u64();
        t.endCycle = r.u64();
        t.opsIssued = r.u64();
        readStallCounts(r, &t.stalls);
    }
    n = r.u64();
    if (!checkedSize(r, n))
        return false;
    s->marks.resize(n);
    for (auto& m : s->marks) {
        m.thread = static_cast<int>(r.u32());
        m.id = r.i64();
        m.cycle = r.u64();
    }
    s->faultsEnabled = r.b();
    s->faults.memJitterEvents = r.u64();
    s->faults.memJitterCycles = r.u64();
    s->faults.memBurstEvents = r.u64();
    s->faults.memBurstAccesses = r.u64();
    s->faults.memBurstCycles = r.u64();
    s->faults.bankStormEvents = r.u64();
    s->faults.bankStormDelayCycles = r.u64();
    s->faults.fuBubbleEvents = r.u64();
    s->faults.fuBubbleCycles = r.u64();
    s->faults.opcacheFlushes = r.u64();
    s->faults.spawnDelayEvents = r.u64();
    s->faults.spawnDelayCycles = r.u64();
    return !r.failed();
}

namespace {

void
writeRegRef(ByteWriter& w, const isa::RegRef& r)
{
    w.u16(r.cluster);
    w.u16(r.index);
}

void
writeOperand(ByteWriter& w, const isa::Operand& o)
{
    w.u8(static_cast<std::uint8_t>(o.kind()));
    if (o.isReg())
        writeRegRef(w, o.reg());
    else if (o.isImm())
        writeValue(w, o.imm());
}

void
writeOperation(ByteWriter& w, const isa::Operation& op)
{
    w.u16(static_cast<std::uint16_t>(op.opcode));
    w.u8(static_cast<std::uint8_t>(op.srcs.size()));
    for (const auto& s : op.srcs)
        writeOperand(w, s);
    w.u8(static_cast<std::uint8_t>(op.dsts.size()));
    for (const auto& d : op.dsts)
        writeRegRef(w, d);
    w.u8(static_cast<std::uint8_t>(op.flavor.pre));
    w.u8(static_cast<std::uint8_t>(op.flavor.post));
    w.u32(op.branchTarget);
    w.u32(op.forkTarget);
    w.i64(op.markId);
}

void
writeSymbols(ByteWriter& w,
             const std::map<std::string, isa::Symbol>& symbols)
{
    w.u64(symbols.size());
    for (const auto& [name, sym] : symbols) {
        w.str(name);
        w.u32(sym.base);
        w.u32(sym.size);
    }
}

bool
readSymbols(ByteReader& r, std::map<std::string, isa::Symbol>* symbols)
{
    const std::uint64_t n = r.u64();
    if (!checkedSize(r, n))
        return false;
    symbols->clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string name = r.str();
        isa::Symbol sym;
        sym.base = r.u32();
        sym.size = r.u32();
        if (r.failed())
            return false;
        symbols->emplace(std::move(name), sym);
    }
    return true;
}

void
writeFuncInfo(ByteWriter& w,
              const std::vector<sched::FuncScheduleInfo>& info)
{
    w.u64(info.size());
    for (const auto& f : info) {
        w.str(f.name);
        w.u64(f.blockRows.size());
        for (int v : f.blockRows)
            w.u32(static_cast<std::uint32_t>(v));
        w.u32(static_cast<std::uint32_t>(f.totalRows));
        w.u32(static_cast<std::uint32_t>(f.totalOps));
        w.u32(static_cast<std::uint32_t>(f.copiesInserted));
        w.u64(f.regCount.size());
        for (const auto& v : f.regCount)
            w.u32(v);
    }
}

bool
readFuncInfo(ByteReader& r, std::vector<sched::FuncScheduleInfo>* info)
{
    std::uint64_t n = r.u64();
    if (!checkedSize(r, n))
        return false;
    info->resize(n);
    for (auto& f : *info) {
        f.name = r.str();
        std::uint64_t k = r.u64();
        if (!checkedSize(r, k))
            return false;
        f.blockRows.resize(k);
        for (auto& v : f.blockRows)
            v = static_cast<int>(r.u32());
        f.totalRows = static_cast<int>(r.u32());
        f.totalOps = static_cast<int>(r.u32());
        f.copiesInserted = static_cast<int>(r.u32());
        k = r.u64();
        if (!checkedSize(r, k))
            return false;
        f.regCount.resize(k);
        for (auto& v : f.regCount)
            v = r.u32();
    }
    return !r.failed();
}

} // namespace

void
writeProgram(ByteWriter& w, const isa::Program& p)
{
    w.u64(p.threads.size());
    for (const auto& t : p.threads) {
        w.str(t.name);
        w.u64(t.instructions.size());
        for (const auto& inst : t.instructions) {
            w.u16(static_cast<std::uint16_t>(inst.slots.size()));
            for (const auto& slot : inst.slots) {
                w.u16(slot.fu);
                writeOperation(w, slot.op);
            }
        }
        w.u16(static_cast<std::uint16_t>(t.paramHomes.size()));
        for (const auto& h : t.paramHomes)
            writeRegRef(w, h);
        w.u16(static_cast<std::uint16_t>(t.regCount.size()));
        for (const auto& v : t.regCount)
            w.u32(v);
    }
    w.u32(p.entry);
    w.u32(p.memorySize);
    w.u64(p.memInits.size());
    for (const auto& m : p.memInits) {
        w.u32(m.addr);
        writeValue(w, m.value);
        w.b(m.full);
    }
    writeSymbols(w, p.symbols);
}

void
writeCompileResult(ByteWriter& w, const sched::CompileResult& c)
{
    writeProgram(w, c.program);
    writeFuncInfo(w, c.funcInfo);
}

std::string
encodeOutcome(const RunOutcome& o, const std::string& fingerprint)
{
    static const core::RunResult kEmpty;
    const core::RunResult& r = o.failed ? kEmpty : o.result;
    const std::string label = o.point ? o.point->label : "";

    // A small JSON meta-header leads the binary body so external
    // tooling (scripts/check_stats_schema.py --journal) can validate
    // journal records without a C++ decoder. The threw byte is
    // reserved and always 0.
    const std::string header = strCat(
        "{\"label\": ", jsonQuote(label), ", \"fingerprint\": ",
        jsonQuote(fingerprint), ", \"threw\": 0, \"failed\": ",
        o.failed ? "true" : "false", ", \"error_kind\": ",
        jsonQuote(simErrorKindName(o.errorKind)), ", \"retries\": ",
        o.retries, ", \"compile_cached\": ",
        o.compileCached ? "true" : "false", "}");

    ByteWriter w;
    w.str(header);
    w.str(label);
    w.str(fingerprint);
    w.u8(0);  // threw
    w.b(o.failed);
    w.u8(static_cast<std::uint8_t>(o.errorKind));
    w.u64(o.errorCycle);
    w.str(o.error);
    w.u32(static_cast<std::uint32_t>(o.retries));
    w.b(o.compileCached);
    w.f64(o.wallMs);
    writeRunStats(w, r.stats);
    w.u64(r.memory.size());
    for (const auto& v : r.memory)
        writeValue(w, v);
    writeSymbols(w, r.compiled.program.symbols);
    w.u32(r.compiled.program.memorySize);
    writeFuncInfo(w, r.compiled.funcInfo);
    return w.take();
}

bool
decodeOutcome(const std::string& payload, RunOutcome* o,
              std::string* fingerprint)
{
    *o = RunOutcome{};
    ByteReader r(payload);
    r.str();  // JSON meta-header: external tooling only
    r.str();  // label: the point supplies it on replay
    *fingerprint = r.str();
    const std::uint8_t threw = r.u8();
    o->failed = r.b();
    const std::uint8_t kind = r.u8();
    if (threw != 0 ||
        kind > static_cast<std::uint8_t>(SimErrorKind::InvariantViolation))
        return false;
    o->errorKind = static_cast<SimErrorKind>(kind);
    o->errorCycle = r.u64();
    o->error = r.str();
    o->retries = static_cast<int>(r.u32());
    o->compileCached = r.b();
    o->wallMs = r.f64();
    core::RunResult& res = o->result;
    if (!readRunStats(r, &res.stats))
        return false;
    const std::uint64_t n = r.u64();
    if (!checkedSize(r, n))
        return false;
    res.memory.resize(n);
    for (auto& v : res.memory)
        if (!readValue(r, &v))
            return false;
    if (!readSymbols(r, &res.compiled.program.symbols))
        return false;
    res.compiled.program.memorySize = r.u32();
    return readFuncInfo(r, &res.compiled.funcInfo) && !r.failed() &&
           r.atEnd();
}

bool
atomicWriteFile(const std::string& path, const std::string& bytes)
{
    const std::string tmp =
        strCat(path, ".tmp.", static_cast<unsigned long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readWholeFile(const std::string& path, std::string* out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

} // namespace exp
} // namespace procoup
