/**
 * @file
 * Unit tests: functional executor — per-opcode semantics of
 * computeLane and architectural effects of step() (branches,
 * barriers, exit, memory, fault-hook placement).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/warp_context.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "func/executor.hh"
#include "isa/kernel_builder.hh"
#include "mem/memory.hh"

using namespace warped;
using namespace warped::isa;
using func::Executor;
using func::LaneInfo;

namespace {

RegValue
lane(Opcode op, RegValue a = 0, RegValue b = 0, RegValue c = 0,
     std::int32_t imm = 0)
{
    Instruction in;
    in.op = op;
    in.imm = imm;
    return Executor::computeLane(in, {a, b, c}, LaneInfo{});
}

} // namespace

TEST(ComputeLane, IntegerArithmetic)
{
    EXPECT_EQ(lane(Opcode::IADD, 3, 4), 7u);
    EXPECT_EQ(lane(Opcode::ISUB, 3, 4), RegValue(-1));
    EXPECT_EQ(lane(Opcode::IMUL, 5, 7), 35u);
    EXPECT_EQ(lane(Opcode::IMAD, 5, 7, 2), 37u);
    EXPECT_EQ(lane(Opcode::IDIV, RegValue(-9), 2), RegValue(-4));
    EXPECT_EQ(lane(Opcode::IMOD, RegValue(-9), 2), RegValue(-1));
    EXPECT_EQ(lane(Opcode::IMIN, RegValue(-1), 3), RegValue(-1));
    EXPECT_EQ(lane(Opcode::IMAX, RegValue(-1), 3), 3u);
}

TEST(ComputeLane, DivisionByZeroIsDefined)
{
    EXPECT_EQ(lane(Opcode::IDIV, 5, 0), 0u);
    EXPECT_EQ(lane(Opcode::IMOD, 5, 0), 0u);
    EXPECT_EQ(lane(Opcode::IDIV, 0x80000000u, RegValue(-1)),
              0x80000000u);
    EXPECT_EQ(lane(Opcode::IMOD, 0x80000000u, RegValue(-1)), 0u);
}

TEST(ComputeLane, BitOps)
{
    EXPECT_EQ(lane(Opcode::AND, 0b1100, 0b1010), 0b1000u);
    EXPECT_EQ(lane(Opcode::OR, 0b1100, 0b1010), 0b1110u);
    EXPECT_EQ(lane(Opcode::XOR, 0b1100, 0b1010), 0b0110u);
    EXPECT_EQ(lane(Opcode::NOT, 0), ~0u);
    EXPECT_EQ(lane(Opcode::SHL, 1, 4), 16u);
    EXPECT_EQ(lane(Opcode::SHR, 0x80000000u, 31), 1u);
    EXPECT_EQ(lane(Opcode::SRA, 0x80000000u, 31), ~0u);
    EXPECT_EQ(lane(Opcode::SHL, 1, 33), 2u); // shift amount masked
    EXPECT_EQ(lane(Opcode::SHLI, 3, 0, 0, 2), 12u);
    EXPECT_EQ(lane(Opcode::SHRI, 12, 0, 0, 2), 3u);
    EXPECT_EQ(lane(Opcode::ANDI, 0xFF, 0, 0, 0x0F), 0x0Fu);
}

TEST(ComputeLane, Comparisons)
{
    EXPECT_EQ(lane(Opcode::ISETP_LT, RegValue(-1), 0), 1u);
    EXPECT_EQ(lane(Opcode::ISETP_GT, RegValue(-1), 0), 0u);
    EXPECT_EQ(lane(Opcode::ISETP_EQ, 7, 7), 1u);
    EXPECT_EQ(lane(Opcode::ISETP_NE, 7, 7), 0u);
    EXPECT_EQ(lane(Opcode::ISETP_LE, 7, 7), 1u);
    EXPECT_EQ(lane(Opcode::ISETP_GE, 6, 7), 0u);
}

TEST(ComputeLane, Select)
{
    EXPECT_EQ(lane(Opcode::SEL, 1, 10, 20), 10u);
    EXPECT_EQ(lane(Opcode::SEL, 0, 10, 20), 20u);
}

TEST(ComputeLane, FloatArithmetic)
{
    EXPECT_EQ(asFloat(lane(Opcode::FADD, asReg(1.5f), asReg(2.5f))),
              4.0f);
    EXPECT_EQ(asFloat(lane(Opcode::FSUB, asReg(1.5f), asReg(2.5f))),
              -1.0f);
    EXPECT_EQ(asFloat(lane(Opcode::FMUL, asReg(3.0f), asReg(2.0f))),
              6.0f);
    EXPECT_EQ(asFloat(lane(Opcode::FFMA, asReg(3.0f), asReg(2.0f),
                           asReg(1.0f))),
              std::fma(3.0f, 2.0f, 1.0f));
    EXPECT_EQ(asFloat(lane(Opcode::FMIN, asReg(-1.0f), asReg(2.0f))),
              -1.0f);
    EXPECT_EQ(asFloat(lane(Opcode::FMAX, asReg(-1.0f), asReg(2.0f))),
              2.0f);
    EXPECT_EQ(asFloat(lane(Opcode::FNEG, asReg(1.5f))), -1.5f);
    EXPECT_EQ(lane(Opcode::FSETP_LT, asReg(1.0f), asReg(2.0f)), 1u);
    EXPECT_EQ(lane(Opcode::FSETP_GE, asReg(1.0f), asReg(2.0f)), 0u);
}

TEST(ComputeLane, Conversions)
{
    EXPECT_EQ(asFloat(lane(Opcode::I2F, RegValue(-3))), -3.0f);
    EXPECT_EQ(lane(Opcode::F2I, asReg(-3.7f)), RegValue(-3));
}

TEST(ComputeLane, SfuTranscendentals)
{
    const float x = 0.5f;
    EXPECT_EQ(asFloat(lane(Opcode::SIN, asReg(x))), std::sin(x));
    EXPECT_EQ(asFloat(lane(Opcode::COS, asReg(x))), std::cos(x));
    EXPECT_EQ(asFloat(lane(Opcode::SQRT, asReg(x))), std::sqrt(x));
    EXPECT_EQ(asFloat(lane(Opcode::RSQRT, asReg(x))),
              1.0f / std::sqrt(x));
    EXPECT_EQ(asFloat(lane(Opcode::EX2, asReg(x))), std::exp2(x));
    EXPECT_EQ(asFloat(lane(Opcode::LG2, asReg(x))), std::log2(x));
    EXPECT_EQ(asFloat(lane(Opcode::RCP, asReg(x))), 2.0f);
}

TEST(ComputeLane, MemoryOpsReturnEffectiveAddress)
{
    EXPECT_EQ(lane(Opcode::LDG, 100, 0, 0, 24), 124u);
    EXPECT_EQ(lane(Opcode::STS, 100, 7, 0, -4), 96u);
}

TEST(ComputeLane, SpecialRegisters)
{
    Instruction in;
    in.op = Opcode::S2R;
    LaneInfo li;
    li.tid = 3;
    li.ctaid = 2;
    li.ntid = 64;
    li.nctaid = 8;
    li.laneId = 3;
    li.warpId = 0;
    const auto get = [&](SpecialReg sr) {
        in.imm = static_cast<std::int32_t>(sr);
        return Executor::computeLane(in, {0, 0, 0}, li);
    };
    EXPECT_EQ(get(SpecialReg::Tid), 3u);
    EXPECT_EQ(get(SpecialReg::Ctaid), 2u);
    EXPECT_EQ(get(SpecialReg::Ntid), 64u);
    EXPECT_EQ(get(SpecialReg::Nctaid), 8u);
    EXPECT_EQ(get(SpecialReg::Gtid), 131u);
}

// ---- step() ---------------------------------------------------------

namespace {

struct StepFixture : ::testing::Test
{
    StepFixture()
        : cfg(arch::GpuConfig::testDefault()), global(1 << 16),
          shared(1 << 12),
          exec(cfg, 0, global, func::NullFaultHook::instance())
    {
    }

    arch::WarpContext
    makeWarp(unsigned threads = 32)
    {
        return arch::WarpContext(32, 16, /*block*/ 1, /*warp*/ 0,
                                 threads, threads, /*grid*/ 4);
    }

    arch::GpuConfig cfg;
    mem::Memory global;
    mem::Memory shared;
    func::Executor exec;
};

} // namespace

TEST_F(StepFixture, ArithmeticWritesAllActiveLanes)
{
    KernelBuilder kb("t", 16);
    auto a = kb.reg(), b = kb.reg(), c = kb.reg();
    kb.s2r(a, SpecialReg::Tid);
    kb.movi(b, 10);
    kb.iadd(c, a, b);
    const auto prog = kb.build();

    auto warp = makeWarp();
    for (int i = 0; i < 3; ++i)
        exec.step(warp, prog, shared, nullptr, i);
    for (unsigned t = 0; t < 32; ++t)
        EXPECT_EQ(warp.reg(t, 2), t + 10u);
}

TEST_F(StepFixture, PartialWarpOnlyTouchesValidLanes)
{
    KernelBuilder kb("t", 16);
    auto a = kb.reg();
    kb.movi(a, 7);
    const auto prog = kb.build();

    auto warp = makeWarp(20); // tail warp: lanes 20..31 invalid
    const auto rec = exec.step(warp, prog, shared, nullptr, 0);
    EXPECT_EQ(rec.active.count(), 20u);
    EXPECT_EQ(warp.reg(0, 0), 7u);
    EXPECT_EQ(warp.reg(19, 0), 7u);
    EXPECT_EQ(warp.reg(25, 0), 0u);
}

TEST_F(StepFixture, GlobalLoadStoreRoundTrip)
{
    global.writeWord(0x100, 0xdeadbeef);
    KernelBuilder kb("t", 16);
    auto addr = kb.reg(), v = kb.reg();
    kb.movi(addr, 0x100);
    kb.ldg(v, addr);
    kb.stg(addr, v, 0x40);
    const auto prog = kb.build();

    auto warp = makeWarp(1);
    for (int i = 0; i < 3; ++i)
        exec.step(warp, prog, shared, nullptr, i);
    EXPECT_EQ(global.readWord(0x140), 0xdeadbeefu);
}

TEST_F(StepFixture, SharedMemoryIsPerBlockSegment)
{
    KernelBuilder kb("t", 16);
    auto addr = kb.reg(), v = kb.reg(), w = kb.reg();
    kb.movi(addr, 0x20);
    kb.movi(v, 123);
    kb.sts(addr, v);
    kb.lds(w, addr);
    const auto prog = kb.build();

    auto warp = makeWarp(1);
    for (int i = 0; i < 4; ++i)
        exec.step(warp, prog, shared, nullptr, i);
    EXPECT_EQ(warp.reg(0, 2), 123u);
    EXPECT_EQ(shared.readWord(0x20), 123u);
}

TEST_F(StepFixture, BranchDivergesAndReconverges)
{
    KernelBuilder kb("t", 16);
    auto tid = kb.reg(), c = kb.reg(), p = kb.reg(), x = kb.reg();
    kb.s2r(tid, SpecialReg::Tid);
    kb.movi(c, 16);
    kb.isetpLt(p, tid, c);
    kb.ifThenElse(p, [&] { kb.movi(x, 1); }, [&] { kb.movi(x, 2); });
    const auto prog = kb.build();

    auto warp = makeWarp();
    unsigned guard = 0;
    while (!warp.finished() && guard++ < 32)
        exec.step(warp, prog, shared, nullptr, guard);
    ASSERT_TRUE(warp.finished());
    for (unsigned t = 0; t < 32; ++t)
        EXPECT_EQ(warp.reg(t, 3), t < 16 ? 1u : 2u);
}

TEST_F(StepFixture, BarrierMarksWarp)
{
    KernelBuilder kb("t", 16);
    kb.bar();
    const auto prog = kb.build();
    auto warp = makeWarp();
    const auto rec = exec.step(warp, prog, shared, nullptr, 0);
    EXPECT_TRUE(rec.wasBarrier);
    EXPECT_TRUE(warp.atBarrier());
    EXPECT_FALSE(warp.finished());
}

TEST_F(StepFixture, ExitFinishesWarp)
{
    KernelBuilder kb("t", 16);
    kb.exit();
    const auto prog = kb.build();
    auto warp = makeWarp();
    const auto rec = exec.step(warp, prog, shared, nullptr, 0);
    EXPECT_TRUE(rec.wasExit);
    EXPECT_TRUE(warp.finished());
}

namespace {

/** Hook that flips bit 0 on one physical lane. */
struct Bit0Hook final : func::FaultHook
{
    unsigned lane;
    explicit Bit0Hook(unsigned l) : lane(l) {}
    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        return ctx.lane == lane ? pure ^ 1u : pure;
    }
};

} // namespace

TEST_F(StepFixture, FaultHookSeesMappedLane)
{
    // Thread slot 0 remapped to physical lane 7: the hook keyed on
    // lane 7 must corrupt slot 0's result.
    Bit0Hook hook(7);
    func::Executor fexec(cfg, 0, global, hook);

    unsigned lane_of[32];
    for (unsigned i = 0; i < 32; ++i)
        lane_of[i] = i;
    lane_of[0] = 7;
    lane_of[7] = 0;

    KernelBuilder kb("t", 16);
    auto a = kb.reg();
    kb.movi(a, 10);
    const auto prog = kb.build();

    auto warp = makeWarp();
    fexec.step(warp, prog, shared, lane_of, 0);
    EXPECT_EQ(warp.reg(0, 0), 11u); // corrupted via lane 7
    EXPECT_EQ(warp.reg(7, 0), 10u); // clean via lane 0
    EXPECT_EQ(warp.reg(1, 0), 10u);
}

namespace {

/** Flips bit 0 of every result, live only on cycles [10, 20). */
class WindowHook final : public func::FaultHook
{
  public:
    RegValue apply(RegValue pure, const func::FaultCtx &) override
    {
        return pure ^ 1u;
    }
    bool
    liveAt(unsigned, Cycle cycle) const override
    {
        return cycle >= 10 && cycle < 20;
    }
};

} // namespace

TEST_F(StepFixture, StampsCleanOnlyWhenNoLiveHookTouchedTheResults)
{
    WindowHook hook;
    func::Executor fexec(cfg, 0, global, hook);
    KernelBuilder kb("t", 16);
    auto a = kb.reg();
    kb.movi(a, 10);
    kb.movi(a, 10);
    kb.movi(a, 10);
    const auto prog = kb.build();

    auto warp = makeWarp();
    func::ExecRecord rec;
    fexec.stepInto(warp, prog, shared, nullptr, 9, rec);
    EXPECT_TRUE(rec.clean);
    EXPECT_EQ(rec.results[0], 10u);
    fexec.stepInto(warp, prog, shared, nullptr, 10, rec);
    EXPECT_FALSE(rec.clean); // the result went through the live hook
    EXPECT_EQ(rec.results[0], 11u);
    fexec.stepInto(warp, prog, shared, nullptr, 20, rec);
    EXPECT_TRUE(rec.clean); // the stamp is reset on every step
    // A default-constructed (hand-built) record is never clean.
    EXPECT_FALSE(func::ExecRecord{}.clean);
}

// ---------------------------------------------------------------
// computePlane vs computeLane equivalence.
//
// The SoA execute path (Executor::computePlane) evaluates a whole
// warp of one opcode with per-case loops; the scalar computeLane is
// the reference semantics (and still serves the verification and
// fault-hook paths). They must agree bit-for-bit on every opcode,
// operand pattern, and S2R selector — otherwise the DMR comparator
// would flag (or miss) phantom mismatches between original and
// redundant execution.
// ---------------------------------------------------------------

TEST(ComputePlane, MatchesComputeLaneOnEveryOpcode)
{
    constexpr unsigned ws = 32;
    Rng rng(0x9e3779b9ULL);

    std::array<std::array<RegValue, func::kMaxWarp>, 3> ops{};
    std::array<LaneInfo, func::kMaxWarp> li{};
    std::array<RegValue, func::kMaxWarp> out{};

    for (unsigned slot = 0; slot < ws; ++slot) {
        li[slot].tid = static_cast<std::int32_t>(slot);
        li[slot].ctaid = 3;
        li[slot].ntid = 128;
        li[slot].nctaid = 9;
        li[slot].laneId = static_cast<std::int32_t>(slot);
        li[slot].warpId = 2;
    }

    for (unsigned opi = 0; opi < isa::opcodeCount(); ++opi) {
        Instruction in;
        in.op = static_cast<Opcode>(opi);
        // Exercised by imm-consuming ops, inert elsewhere; S2R
        // interprets imm as a selector and panics past Gtid, so it
        // gets a valid one here (all selectors are swept in the
        // dedicated test below).
        in.imm = in.op == Opcode::S2R ? 4 : 12;

        for (unsigned trial = 0; trial < 8; ++trial) {
            for (unsigned s = 0; s < 3; ++s)
                for (unsigned slot = 0; slot < ws; ++slot)
                    ops[s][slot] =
                        static_cast<RegValue>(rng.next());
            // Trials 0-1 pin edge operands: zeros (division by zero,
            // shift by zero) and all-ones (sign boundaries).
            if (trial == 0)
                for (auto &plane : ops)
                    plane.fill(0);
            if (trial == 1)
                for (auto &plane : ops)
                    plane.fill(~RegValue{0});

            Executor::computePlane(in, ops, li, ws, out.data());
            for (unsigned slot = 0; slot < ws; ++slot) {
                const RegValue ref = Executor::computeLane(
                    in,
                    {ops[0][slot], ops[1][slot], ops[2][slot]},
                    li[slot]);
                ASSERT_EQ(out[slot], ref)
                    << isa::opcodeName(in.op) << " slot " << slot
                    << " trial " << trial;
            }
        }
    }
}

TEST(ComputePlane, MatchesComputeLaneOnEveryS2RSelector)
{
    constexpr unsigned ws = 32;
    std::array<std::array<RegValue, func::kMaxWarp>, 3> ops{};
    std::array<LaneInfo, func::kMaxWarp> li{};
    std::array<RegValue, func::kMaxWarp> out{};

    for (unsigned slot = 0; slot < ws; ++slot) {
        li[slot].tid = static_cast<std::int32_t>(100 + slot);
        li[slot].ctaid = 7;
        li[slot].ntid = 256;
        li[slot].nctaid = 13;
        li[slot].laneId = static_cast<std::int32_t>(slot ^ 5);
        li[slot].warpId = 4;
    }

    for (int sel = 0; sel <= int(isa::SpecialReg::Gtid); ++sel) {
        Instruction in;
        in.op = Opcode::S2R;
        in.imm = sel;
        Executor::computePlane(in, ops, li, ws, out.data());
        for (unsigned slot = 0; slot < ws; ++slot)
            ASSERT_EQ(out[slot],
                      Executor::computeLane(in, {0, 0, 0}, li[slot]))
                << "selector " << sel << " slot " << slot;
    }
}
