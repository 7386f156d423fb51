/**
 * @file
 * Unit and property tests: the text assembler. The headline property:
 * parse(disassemble(P)) reproduces P exactly for every built-in
 * workload kernel.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
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
