#include "isa/assembler.hh"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace warped {
namespace isa {

namespace {

/** Cursor over one instruction line. */
class LineParser
{
  public:
    LineParser(const std::string &line, unsigned line_no)
        : s_(line), lineNo_(line_no)
    {
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        warped_fatal("assembler: line ", lineNo_, ": ", what, " in '",
                     s_, "'");
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t'))
            ++pos_;
    }

    bool
    tryConsume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    consume(char c)
    {
        if (!tryConsume(c))
            fail(std::string("expected '") + c + "'");
    }

    bool
    tryConsumeWord(const std::string &w)
    {
        skipWs();
        if (s_.compare(pos_, w.size(), w) == 0) {
            pos_ += w.size();
            return true;
        }
        return false;
    }

    std::string
    word()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '_' || s_[pos_] == '.'))
            ++pos_;
        if (pos_ == start)
            fail("expected a word");
        return s_.substr(start, pos_ - start);
    }

    /** A signed decimal integer in [@p lo, @p hi] (default: int32). */
    std::int64_t
    integer(std::int64_t lo = INT32_MIN, std::int64_t hi = INT32_MAX)
    {
        skipWs();
        const bool negative = pos_ < s_.size() && s_[pos_] == '-';
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        const std::size_t digits = pos_;
        std::int64_t v = 0;
        for (; pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_]));
             ++pos_)
            v = std::min<std::int64_t>(v * 10 + (s_[pos_] - '0'),
                                       std::int64_t{1} << 40);
        if (pos_ == digits)
            fail("expected an integer");
        if (negative)
            v = -v;
        if (v < lo || v > hi)
            fail("integer out of range");
        return v;
    }

    /** A non-negative integer that fits an int32 (a count or a PC). */
    std::int64_t count() { return integer(0, INT32_MAX); }

    Reg
    reg()
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != 'r')
            fail("expected a register");
        ++pos_;
        const auto v = integer();
        if (v < 0 || v > 255)
            fail("register index out of range");
        return Reg{static_cast<RegIndex>(v)};
    }

    bool
    atEnd()
    {
        skipWs();
        return pos_ >= s_.size();
    }

  private:
    const std::string &s_;
    std::size_t pos_ = 0;
    unsigned lineNo_;
};

const std::map<std::string, Opcode> &
nameTable()
{
    static const std::map<std::string, Opcode> table = [] {
        std::map<std::string, Opcode> t;
        for (unsigned i = 0; i < opcodeCount(); ++i) {
            const auto op = static_cast<Opcode>(i);
            t.emplace(opcodeName(op), op);
        }
        return t;
    }();
    return table;
}

bool
printsImm(Opcode op)
{
    return op == Opcode::MOVI || op == Opcode::S2R ||
           op == Opcode::IADDI || op == Opcode::SHLI ||
           op == Opcode::SHRI || op == Opcode::ANDI ||
           opcodeIsShuffle(op);
}

} // namespace

Program
parseProgram(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    unsigned line_no = 0;

    std::string name = "parsed";
    unsigned num_regs = 0, shared_bytes = 0;
    bool have_header = false;
    std::vector<Instruction> instrs;

    while (std::getline(in, line)) {
        ++line_no;
        LineParser lp(line, line_no);
        if (lp.atEnd())
            continue;

        if (lp.tryConsumeWord(".kernel")) {
            name = lp.word();
            lp.consume('(');
            if (!lp.tryConsumeWord("regs"))
                lp.fail("expected 'regs'");
            num_regs = static_cast<unsigned>(lp.count());
            lp.consume(',');
            if (!lp.tryConsumeWord("shared"))
                lp.fail("expected 'shared'");
            shared_bytes = static_cast<unsigned>(lp.count());
            lp.consume('B');
            lp.consume(')');
            have_header = true;
            continue;
        }

        // "<pc>: MNEMONIC operands"
        const auto pc = lp.count();
        lp.consume(':');
        if (static_cast<std::size_t>(pc) != instrs.size())
            lp.fail("instructions must be listed in PC order");

        Instruction ins;
        const std::string mnemonic = lp.word();
        const auto op = nameTable().find(mnemonic);
        if (op == nameTable().end())
            lp.fail("unknown mnemonic '" + mnemonic + "'");
        ins.op = op->second;

        bool first = true;
        auto sep = [&] {
            if (!first)
                lp.consume(',');
            first = false;
        };

        if (ins.hasDst()) {
            sep();
            ins.dst = lp.reg();
        }
        for (unsigned s = 0; s < ins.numSrcs(); ++s) {
            sep();
            ins.src[s] = lp.reg();
        }
        if (printsImm(ins.op)) {
            sep();
            lp.consume('#');
            ins.imm = static_cast<std::int32_t>(lp.integer());
        }
        if (ins.isMem()) {
            sep();
            lp.consume('[');
            const Reg base = lp.reg();
            if (base.idx != ins.src[0].idx)
                lp.fail("address base must match the first source");
            ins.imm = static_cast<std::int32_t>(lp.integer());
            lp.consume(']');
        }
        if (ins.isBranch()) {
            lp.tryConsume(','); // the printer separates with ", "
            lp.consume('-');
            lp.consume('>');
            ins.target = static_cast<Pc>(lp.count());
            if (lp.tryConsume('(')) {
                if (!lp.tryConsumeWord("reconv"))
                    lp.fail("expected 'reconv'");
                ins.reconv = static_cast<Pc>(lp.count());
                lp.consume(')');
            }
        }
        if (!lp.atEnd())
            lp.fail("trailing characters");
        instrs.push_back(ins);
    }

    if (!have_header)
        warped_fatal("assembler: missing .kernel header");

    Program p(name, std::move(instrs), num_regs, shared_bytes);
    p.validate();
    return p;
}

} // namespace isa
} // namespace warped
