/**
 * @file
 * Unit and property tests: the text assembler. The headline property:
 * parse(disassemble(P)) reproduces P exactly for every built-in
 * workload kernel, and mutants of those kernels either fail with an
 * assembler error or round-trip too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/kernel_builder.hh"
#include "workloads/workload.hh"

using namespace warped;
using namespace warped::isa;

namespace {

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.op == b.op && a.dst == b.dst && a.src[0] == b.src[0] &&
           a.src[1] == b.src[1] && a.src[2] == b.src[2] &&
           a.imm == b.imm && a.target == b.target &&
           a.reconv == b.reconv;
}

bool
samePrograms(const Program &a, const Program &b)
{
    if (a.size() != b.size() || a.numRegs() != b.numRegs() ||
        a.sharedBytes() != b.sharedBytes())
        return false;
    for (Pc pc = 0; pc < a.size(); ++pc) {
        if (!sameInstruction(a.at(pc), b.at(pc)))
            return false;
    }
    return true;
}

} // namespace

TEST(Assembler, HandWrittenProgram)
{
    const std::string text = R"(.kernel demo  (regs 4, shared 16B)
  0:	S2R r0, #6
  1:	MOVI r1, #-5
  2:	IADD r2, r0, r1
  3:	LDG r3, r2, [r2+8]
  4:	STS r2, r3, [r2-4]
  5:	BRZ r3 -> 7 (reconv 7)
  6:	SHFL_XOR r1, r2, #16
  7:	EXIT
)";
    const auto p = parseProgram(text);
    EXPECT_EQ(p.name(), "demo");
    EXPECT_EQ(p.numRegs(), 4u);
    EXPECT_EQ(p.sharedBytes(), 16u);
    ASSERT_EQ(p.size(), 8u);
    EXPECT_EQ(p.at(0).op, Opcode::S2R);
    EXPECT_EQ(p.at(1).imm, -5);
    EXPECT_EQ(p.at(3).imm, 8);
    EXPECT_EQ(p.at(4).imm, -4);
    EXPECT_EQ(p.at(5).target, 7u);
    EXPECT_EQ(p.at(5).reconv, 7u);
    EXPECT_EQ(p.at(6).imm, 16);
}

class AssemblerRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AssemblerRoundTrip, ParseOfDisassembleIsIdentity)
{
    setVerbose(false);
    auto w = workloads::makeByName(GetParam());
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    w->setup(g);
    const auto &prog = w->program();
    const auto reparsed = parseProgram(prog.disassemble());
    EXPECT_TRUE(samePrograms(prog, reparsed)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AssemblerRoundTrip,
    ::testing::ValuesIn(workloads::allNames()),
    [](const auto &info) { return info.param; });

TEST(Assembler, ErrorsAreLineNumbered)
{
    setVerbose(false);
    EXPECT_THROW(parseProgram("garbage"), std::runtime_error);
    EXPECT_THROW(parseProgram(".kernel k (regs 4, shared 0B)\n"
                              "  0:\tFROBNICATE r1\n"),
                 std::runtime_error);
    // PC order enforced.
    EXPECT_THROW(parseProgram(".kernel k (regs 4, shared 0B)\n"
                              "  1:\tEXIT\n"),
                 std::runtime_error);
    // Missing header.
    EXPECT_THROW(parseProgram("  0:\tEXIT\n"), std::runtime_error);
    // Address base must match source 0.
    EXPECT_THROW(parseProgram(".kernel k (regs 4, shared 0B)\n"
                              "  0:\tLDG r0, r1, [r2+0]\n"
                              "  1:\tEXIT\n"),
                 std::runtime_error);
    // Numbers parse strictly and must fit an int32: an immediate
    // beyond long long, a lone sign, and one beyond int32 that would
    // otherwise wrap (#4294967299 read back as #3).
    for (const char *bad : {"MOVI r1, #99999999999999999999999",
                            "MOVI r-, #1", "MOVI r1, #-",
                            "MOVI r1, #4294967299", "MOVI r1, #2147483648",
                            "LDG r1, r2, [r2+4294967296]", "BRA -> -1"}) {
        SCOPED_TRACE(bad);
        try {
            parseProgram(std::string(".kernel k (regs 4, shared 0B)\n"
                                     "  0:\t") +
                         bad + "\n  1:\tEXIT\n");
            ADD_FAILURE() << "parsed";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("assembler: line 2"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(parseProgram(".kernel k (regs 4, shared 0B)\n"
                           "  0:\tMOVI r1, #-2147483648\n"
                           "  1:\tEXIT\n")
                  .at(0)
                  .imm,
              INT32_MIN);
}

TEST(Assembler, ParsedProgramExecutes)
{
    setVerbose(false);
    // out[gtid] = gtid * 3, written as text.
    const std::string text = R"(.kernel triple  (regs 4, shared 0B)
  0:	S2R r0, #6
  1:	MOVI r1, #3
  2:	IMUL r2, r0, r1
  3:	SHLI r3, r0, #2
  4:	IADDI r3, r3, #256
  5:	STG r3, r2, [r3+0]
  6:	EXIT
)";
    const auto p = parseProgram(text);
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    const Addr out = g.allocator().alloc(64 * 4);
    ASSERT_EQ(out, 256u);
    g.launch(p, 1, 64);
    for (unsigned t = 0; t < 64; ++t)
        EXPECT_EQ(g.mem().readWord(out + 4 * t), 3 * t);
}

TEST(Assembler, RejectsMoreRegistersThanTheMasksHold)
{
    setVerbose(false);
    // Register reads and writes are tracked as bits of a 64-bit mask.
    EXPECT_THROW(parseProgram(".kernel wide (regs 65, shared 0B)\n"
                              "  0:\tMOVI r64, #1\n"
                              "  1:\tEXIT\n"),
                 std::runtime_error);
    EXPECT_THROW(parseProgram(".kernel wide (regs 72, shared 0B)\n"
                              "  0:\tEXIT\n"),
                 std::runtime_error);
    // KernelBuilder-built programs go through the same validation.
    KernelBuilder kb("wide", 65);
    for (unsigned i = 0; i < 65; ++i)
        kb.movi(kb.reg(), 1);
    EXPECT_THROW(kb.build(), std::runtime_error);
}

TEST(Assembler, SixtyFourRegistersRunUnderDmr)
{
    setVerbose(false);
    // out[gtid] = gtid + 7, carried through the top register r63.
    const std::string text = R"(.kernel wide  (regs 64, shared 0B)
  0:	S2R r0, #6
  1:	MOVI r63, #7
  2:	IADD r63, r63, r0
  3:	SHLI r1, r0, #2
  4:	IADDI r1, r1, #256
  5:	STG r1, r63, [r1+0]
  6:	EXIT
)";
    const auto p = parseProgram(text);
    EXPECT_EQ(p.numRegs(), kMaxRegs);
    gpu::Gpu g(arch::GpuConfig::testDefault(),
               dmr::DmrConfig::paperDefault());
    const Addr out = g.allocator().alloc(64 * 4);
    ASSERT_EQ(out, 256u);
    const auto r = g.launch(p, 2, 32);
    EXPECT_FALSE(r.hung);
    EXPECT_GT(r.dmr.verifiedThreadInstrs, 0u);
    for (unsigned t = 0; t < 64; ++t)
        EXPECT_EQ(g.mem().readWord(out + 4 * t), t + 7);
}

// ---------------------------------------------------------------------
// Mutation fuzzing: every byte string near a valid kernel either is
// rejected with a std::runtime_error or parses to a
// program whose disassembly parses back to the same text. Anything
// else — another exception type, a crash, a silently wrapped number —
// fails.

namespace {

/** The texts the mutants start from: every workload kernel's
 *  disassembly and every kernel under examples/kernels. */
std::vector<std::string>
fuzzSeeds()
{
    std::vector<std::string> seeds;
    for (const auto &name : workloads::allNames()) {
        auto w = workloads::makeByName(name);
        gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
        w->setup(g);
        seeds.push_back(w->program().disassemble());
    }
    std::vector<std::filesystem::path> files;
    for (const auto &e :
         std::filesystem::directory_iterator(WARPED_KERNELS_DIR))
        if (e.path().extension() == ".s")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto &f : files) {
        std::ifstream in(f);
        std::stringstream ss;
        ss << in.rdbuf();
        seeds.push_back(parseProgram(ss.str()).disassemble());
    }
    return seeds;
}

/** One to three byte flips, deletions, duplications or digit runs. */
std::string
mutate(std::string s, Rng &rng)
{
    const unsigned edits = 1 + static_cast<unsigned>(rng.nextBelow(3));
    for (unsigned e = 0; e < edits && !s.empty(); ++e) {
        std::size_t at = rng.nextBelow(s.size());
        switch (rng.nextBelow(4)) {
          case 0: // flip one bit of one byte
            s[at] = static_cast<char>(s[at] ^ (1u << rng.nextBelow(8)));
            break;
          case 1: // delete a few bytes
            s.erase(at, 1 + rng.nextBelow(4));
            break;
          case 2: // duplicate a short stretch
            s.insert(at, s.substr(rng.nextBelow(s.size()),
                                  1 + rng.nextBelow(12)));
            break;
          default: { // a run of digits, mostly where a number stands
            if (rng.nextBool(0.75)) {
                const std::size_t d = s.find_first_of("0123456789", at);
                at = d == std::string::npos ? at : d;
            }
            std::string run = rng.nextBool(0.2) ? "-" : "";
            const auto len = 1 + rng.nextBelow(24);
            for (std::uint64_t i = 0; i < len; ++i)
                run += static_cast<char>('0' + rng.nextBelow(10));
            s.insert(at, run);
            break;
          }
        }
    }
    return s;
}

} // namespace

TEST(AssemblerFuzz, MutantsAreRejectedOrRoundTrip)
{
    setVerbose(false);
    const auto seeds = fuzzSeeds();
    ASSERT_GT(seeds.size(), workloads::allNames().size());
    Rng rng(0xa55e3b1e);
    unsigned parsed = 0, rejected = 0;
    // Every rejection prints its complaint; keep them out of the log.
    testing::internal::CaptureStderr();
    for (std::size_t k = 0; k < seeds.size(); ++k) {
        for (unsigned i = 0; i < 400; ++i) {
            const std::string mutant = mutate(seeds[k], rng);
            std::string text;
            try {
                text = parseProgram(mutant).disassemble();
            } catch (const std::runtime_error &) {
                ++rejected;
                continue;
            }
            ++parsed;
            try {
                EXPECT_EQ(parseProgram(text).disassemble(), text)
                    << "mutant " << i << " of seed " << k << ":\n"
                    << mutant;
            } catch (const std::runtime_error &e) {
                ADD_FAILURE() << "the disassembly of mutant " << i
                              << " of seed " << k << " does not parse: "
                              << e.what() << "\n"
                              << text;
            }
        }
    }
    testing::internal::GetCapturedStderr();
    // Both outcomes are exercised (most mutants are rejected).
    EXPECT_GT(parsed, 50u);
    EXPECT_GT(rejected, 1000u);
}
