#include "procoup/isa/asmtext.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <map>
#include <sstream>

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace isa {

namespace {

/** Print a value so the parser can recover its tag and, for a float,
 *  the exact double (the shortest text that reads back to it). */
std::string
valueText(const Value& v)
{
    if (!v.isFloat())
        return strCat(v.rawInt());
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v.rawFloat());
    std::string s(buf, res.ptr);
    if (s.find('.') == std::string::npos &&
            s.find('e') == std::string::npos &&
            s.find("inf") == std::string::npos &&
            s.find("nan") == std::string::npos)
        s += ".0";
    return s;
}

std::string
operandText(const Operand& o)
{
    if (o.isReg())
        return o.reg().toString();
    return strCat("#", valueText(o.imm()));
}

std::string
operationText(const Operation& op)
{
    std::string s = opcodeName(op.opcode);
    if (opcodeIsMemory(op.opcode))
        s += strCat(".", op.flavor.toString());

    bool first = true;
    auto append = [&](const std::string& t) {
        s += first ? " " : ", ";
        s += t;
        first = false;
    };
    for (const auto& d : op.dsts)
        append(d.toString());
    for (const auto& src : op.srcs)
        append(operandText(src));

    if (opcodeIsBranch(op.opcode))
        s += strCat(" @", op.branchTarget);
    if (op.opcode == Opcode::FORK)
        s += strCat(" fn", op.forkTarget);
    if (op.opcode == Opcode::MARK)
        s += strCat(" m", op.markId);
    return s;
}

const std::map<std::string, Opcode>&
opcodeTable()
{
    static const std::map<std::string, Opcode> table = [] {
        std::map<std::string, Opcode> t;
        for (int i = 0; i <= static_cast<int>(Opcode::NOP); ++i) {
            const auto op = static_cast<Opcode>(i);
            t[opcodeName(op)] = op;
        }
        return t;
    }();
    return table;
}

[[noreturn]] void
fail(int line, const std::string& what)
{
    throw CompileError(strCat("assembly line ", line, ": ", what));
}

/** @p text as a whole decimal number of type T: no sign on an
 *  unsigned T, no trailing characters, in T's range. */
template <typename T>
T
parseField(int line, std::string_view text, const char* what)
{
    T v{};
    if (!parseNumber(text, &v))
        fail(line, strCat("bad ", what, " '", text, "'"));
    return v;
}

/** The one operand of directive @p toks, as a number. */
std::uint32_t
directiveArg(int line, const std::vector<std::string>& toks)
{
    if (toks.size() != 2)
        fail(line, strCat(toks[0], " takes one number"));
    return parseField<std::uint32_t>(line, toks[1], toks[0].c_str());
}

bool
looksFloat(const std::string& s)
{
    return s.find('.') != std::string::npos ||
           s.find('e') != std::string::npos ||
           s.find('E') != std::string::npos ||
           s.find("inf") != std::string::npos ||
           s.find("nan") != std::string::npos;
}

Value
parseValue(int line, const std::string& text)
{
    char* end = nullptr;
    if (looksFloat(text)) {
        const double d = std::strtod(text.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail(line, strCat("bad float literal '", text, "'"));
        return Value::makeFloat(d);
    }
    const long long i = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        fail(line, strCat("bad integer literal '", text, "'"));
    return Value::makeInt(i);
}

RegRef
parseReg(int line, const std::string& text)
{
    // cX.rY
    const std::string_view t = text;
    const auto dot = t.find(".r");
    RegRef r;
    if (t.empty() || t[0] != 'c' || dot == std::string_view::npos ||
        !parseNumber(t.substr(1, dot - 1), &r.cluster) ||
        !parseNumber(t.substr(dot + 2), &r.index))
        fail(line, strCat("bad register '", text, "'"));
    return r;
}

MemFlavor
parseFlavor(int line, const std::string& text)
{
    const auto parts = split(text, '/');
    if (parts.size() != 2)
        fail(line, strCat("bad memory flavor '", text, "'"));
    MemFlavor f;
    if (parts[0] == "-")
        f.pre = MemPre::None;
    else if (parts[0] == "wf")
        f.pre = MemPre::Full;
    else if (parts[0] == "we")
        f.pre = MemPre::Empty;
    else
        fail(line, strCat("bad precondition '", parts[0], "'"));
    if (parts[1] == "-")
        f.post = MemPost::Leave;
    else if (parts[1] == "sf")
        f.post = MemPost::SetFull;
    else if (parts[1] == "se")
        f.post = MemPost::SetEmpty;
    else
        fail(line, strCat("bad postcondition '", parts[1], "'"));
    return f;
}

/** Whitespace/comma tokenizer for one operation chunk. */
std::vector<std::string>
tokens(const std::string& chunk)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : chunk) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

OpSlot
parseSlot(int line, const std::string& chunk)
{
    const auto toks = tokens(chunk);
    if (toks.size() < 2 || toks[0].rfind("fu", 0) != 0)
        fail(line, strCat("expected 'fuN op ...' in '", chunk, "'"));

    OpSlot slot;
    slot.fu = parseField<std::uint16_t>(
        line, std::string_view(toks[0]).substr(2), "unit");

    std::string name = toks[1];
    Operation& op = slot.op;
    const auto dot = name.find('.');
    if (dot != std::string::npos) {
        op.flavor = parseFlavor(line, name.substr(dot + 1));
        name = name.substr(0, dot);
    }
    auto it = opcodeTable().find(name);
    if (it == opcodeTable().end())
        fail(line, strCat("unknown opcode '", name, "'"));
    op.opcode = it->second;

    std::vector<Operand> operands;
    for (std::size_t i = 2; i < toks.size(); ++i) {
        const std::string& t = toks[i];
        if (t[0] == '@') {
            op.branchTarget = parseField<std::uint32_t>(
                line, std::string_view(t).substr(1), "branch target");
        } else if (t.rfind("fn", 0) == 0 &&
                   op.opcode == Opcode::FORK) {
            op.forkTarget = parseField<std::uint32_t>(
                line, std::string_view(t).substr(2), "fork target");
        } else if (t[0] == 'm' && op.opcode == Opcode::MARK) {
            op.markId = parseField<std::int64_t>(
                line, std::string_view(t).substr(1), "mark id");
        } else if (t[0] == '#') {
            operands.push_back(
                Operand::makeImm(parseValue(line, t.substr(1))));
        } else {
            operands.push_back(Operand::makeReg(parseReg(line, t)));
        }
    }

    // Split destinations from sources by the opcode's source arity.
    const int nsrc = opcodeNumSources(op.opcode);
    std::size_t ndst = 0;
    if (nsrc >= 0) {
        if (operands.size() < static_cast<std::size_t>(nsrc))
            fail(line, strCat(name, " needs ", nsrc, " sources"));
        ndst = operands.size() - static_cast<std::size_t>(nsrc);
    }
    if (opcodeWritesRegister(op.opcode) && ndst == 0)
        fail(line, strCat(name, " needs a destination register"));
    if (!opcodeWritesRegister(op.opcode) && ndst != 0)
        fail(line, strCat(name, " cannot take a destination"));
    for (std::size_t i = 0; i < ndst; ++i) {
        if (!operands[i].isReg())
            fail(line, "destination must be a register");
        op.dsts.push_back(operands[i].reg());
    }
    op.srcs.assign(operands.begin() + static_cast<long>(ndst),
                   operands.end());
    return slot;
}

} // namespace

std::string
printAssembly(const Program& prog)
{
    std::ostringstream os;
    os << ".entry " << prog.entry << "\n";
    os << ".data " << prog.memorySize << "\n";
    for (const auto& [name, sym] : prog.symbols)
        os << ".sym " << name << " " << sym.base << " " << sym.size
           << "\n";
    for (const auto& mi : prog.memInits) {
        os << ".init " << mi.addr << " " << valueText(mi.value);
        if (!mi.full)
            os << " empty";
        os << "\n";
    }

    for (const auto& t : prog.threads) {
        os << ".thread " << t.name << "\n";
        os << ".regs";
        for (auto n : t.regCount)
            os << " " << n;
        os << "\n";
        if (!t.paramHomes.empty()) {
            os << ".params";
            for (const auto& p : t.paramHomes)
                os << " " << p.toString();
            os << "\n";
        }
        for (std::size_t row = 0; row < t.instructions.size(); ++row) {
            os << "  " << row << ":";
            bool first = true;
            for (const auto& slot : t.instructions[row].slots) {
                os << (first ? " " : " | ") << "fu" << slot.fu << " "
                   << operationText(slot.op);
                first = false;
            }
            os << "\n";
        }
    }
    return os.str();
}

Program
parseAssembly(const std::string& text)
{
    Program prog;
    ThreadCode* thread = nullptr;

    std::istringstream is(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        const auto semi = raw.find(';');
        if (semi != std::string::npos)
            raw.resize(semi);
        const std::string line = trim(raw);
        if (line.empty())
            continue;

        if (line[0] == '.') {
            const auto toks = tokens(line);
            const std::string& d = toks[0];
            if (d == ".entry") {
                prog.entry = directiveArg(lineno, toks);
            } else if (d == ".data") {
                prog.memorySize = directiveArg(lineno, toks);
            } else if (d == ".sym") {
                if (toks.size() != 4)
                    fail(lineno, ".sym takes name base size");
                prog.symbols[toks[1]] = Symbol{
                    parseField<std::uint32_t>(lineno, toks[2], "base"),
                    parseField<std::uint32_t>(lineno, toks[3], "size")};
            } else if (d == ".init") {
                if (toks.size() < 3)
                    fail(lineno, ".init takes addr value [empty]");
                MemInit mi;
                mi.addr = parseField<std::uint32_t>(lineno, toks[1],
                                                    "address");
                mi.value = parseValue(lineno, toks[2]);
                mi.full = !(toks.size() > 3 && toks[3] == "empty");
                prog.memInits.push_back(mi);
            } else if (d == ".thread") {
                prog.threads.emplace_back();
                thread = &prog.threads.back();
                thread->name = toks.size() > 1 ? toks[1] : "";
            } else if (d == ".regs") {
                if (thread == nullptr)
                    fail(lineno, ".regs outside a thread");
                for (std::size_t i = 1; i < toks.size(); ++i)
                    thread->regCount.push_back(parseField<std::uint32_t>(
                        lineno, toks[i], "register count"));
            } else if (d == ".params") {
                if (thread == nullptr)
                    fail(lineno, ".params outside a thread");
                for (std::size_t i = 1; i < toks.size(); ++i)
                    thread->paramHomes.push_back(
                        parseReg(lineno, toks[i]));
            } else {
                fail(lineno, strCat("unknown directive ", d));
            }
            continue;
        }

        // Instruction row: "N: fu0 op ... | fu1 op ..."
        if (thread == nullptr)
            fail(lineno, "instruction outside a thread");
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            fail(lineno, "expected 'row: operations'");
        const auto row = parseField<std::uint32_t>(
            lineno, trim(line.substr(0, colon)), "row number");
        if (row != thread->instructions.size())
            fail(lineno, strCat("row ", row, " out of order (expected ",
                                thread->instructions.size(), ")"));

        Instruction inst;
        const std::string body = line.substr(colon + 1);
        std::size_t start = 0;
        while (start <= body.size()) {
            auto bar = body.find('|', start);
            const std::string chunk = trim(
                bar == std::string::npos
                    ? body.substr(start)
                    : body.substr(start, bar - start));
            if (!chunk.empty())
                inst.slots.push_back(parseSlot(lineno, chunk));
            if (bar == std::string::npos)
                break;
            start = bar + 1;
        }
        thread->instructions.push_back(std::move(inst));
    }
    return prog;
}

} // namespace isa
} // namespace procoup
