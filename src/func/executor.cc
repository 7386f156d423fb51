#include "func/executor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace warped {
namespace func {

namespace {

std::int32_t
sdiv(std::int32_t a, std::int32_t b)
{
    if (b == 0)
        return 0; // hardware-defined: x/0 -> 0
    if (a == INT32_MIN && b == -1)
        return INT32_MIN;
    return a / b;
}

std::int32_t
smod(std::int32_t a, std::int32_t b)
{
    if (b == 0)
        return 0;
    if (a == INT32_MIN && b == -1)
        return 0;
    return a % b;
}

RegValue
boolVal(bool b)
{
    return b ? 1u : 0u;
}

} // namespace

NullFaultHook &
NullFaultHook::instance()
{
    // Magic static: thread-safe initialization; the hook itself is
    // stateless, so concurrent apply() calls are race-free.
    static NullFaultHook nullHook;
    return nullHook;
}

Executor::Executor(const arch::GpuConfig &cfg, unsigned sm_id,
                   mem::Memory &global, FaultHook &hook)
    : cfg_(cfg), smId_(sm_id), global_(global), hook_(&hook)
{
}

RegValue
Executor::computeLane(const isa::Instruction &in,
                      const std::array<RegValue, 3> &ops,
                      const LaneInfo &li)
{
    using isa::Opcode;
    const RegValue a = ops[0], b = ops[1], c = ops[2];
    const auto sa = asSigned(a), sb = asSigned(b);
    const float fa = asFloat(a), fb = asFloat(b), fc = asFloat(c);

    switch (in.op) {
      case Opcode::IADD: return a + b;
      case Opcode::ISUB: return a - b;
      case Opcode::IMUL: return a * b;
      case Opcode::IMAD: return a * b + c;
      case Opcode::IDIV: return static_cast<RegValue>(sdiv(sa, sb));
      case Opcode::IMOD: return static_cast<RegValue>(smod(sa, sb));
      case Opcode::IMIN: return sa < sb ? a : b;
      case Opcode::IMAX: return sa > sb ? a : b;
      case Opcode::AND:  return a & b;
      case Opcode::OR:   return a | b;
      case Opcode::XOR:  return a ^ b;
      case Opcode::NOT:  return ~a;
      case Opcode::SHL:  return a << (b & 31u);
      case Opcode::SHR:  return a >> (b & 31u);
      case Opcode::SRA:  return static_cast<RegValue>(sa >> (b & 31u));
      case Opcode::SHLI: return a << (static_cast<RegValue>(in.imm) & 31u);
      case Opcode::SHRI: return a >> (static_cast<RegValue>(in.imm) & 31u);
      case Opcode::ANDI: return a & static_cast<RegValue>(in.imm);
      case Opcode::ISETP_EQ: return boolVal(sa == sb);
      case Opcode::ISETP_NE: return boolVal(sa != sb);
      case Opcode::ISETP_LT: return boolVal(sa < sb);
      case Opcode::ISETP_LE: return boolVal(sa <= sb);
      case Opcode::ISETP_GT: return boolVal(sa > sb);
      case Opcode::ISETP_GE: return boolVal(sa >= sb);
      case Opcode::SEL:  return a != 0 ? b : c;
      case Opcode::MOV:  return a;
      case Opcode::MOVI: return static_cast<RegValue>(in.imm);
      case Opcode::IADDI:
        return a + static_cast<RegValue>(in.imm);
      case Opcode::S2R:
        switch (static_cast<isa::SpecialReg>(in.imm)) {
          case isa::SpecialReg::Tid:    return li.tid;
          case isa::SpecialReg::Ctaid:  return li.ctaid;
          case isa::SpecialReg::Ntid:   return li.ntid;
          case isa::SpecialReg::Nctaid: return li.nctaid;
          case isa::SpecialReg::LaneId: return li.laneId;
          case isa::SpecialReg::WarpId: return li.warpId;
          case isa::SpecialReg::Gtid:
            return li.ctaid * li.ntid + li.tid;
        }
        warped_panic("bad S2R selector ", in.imm);
      case Opcode::SHFL_XOR:
      case Opcode::SHFL_DOWN:
        // The executor records the *gathered* source value as
        // operand 0 (see step()), so the compute itself is identity —
        // which also makes DMR re-execution exact from the record.
        return a;
      case Opcode::I2F:  return asReg(static_cast<float>(sa));
      case Opcode::F2I:
        return static_cast<RegValue>(static_cast<std::int32_t>(fa));
      case Opcode::FADD: return asReg(fa + fb);
      case Opcode::FSUB: return asReg(fa - fb);
      case Opcode::FMUL: return asReg(fa * fb);
      case Opcode::FFMA: return asReg(std::fma(fa, fb, fc));
      case Opcode::FMIN: return asReg(std::fmin(fa, fb));
      case Opcode::FMAX: return asReg(std::fmax(fa, fb));
      case Opcode::FNEG: return asReg(-fa);
      case Opcode::FSETP_EQ: return boolVal(fa == fb);
      case Opcode::FSETP_NE: return boolVal(fa != fb);
      case Opcode::FSETP_LT: return boolVal(fa < fb);
      case Opcode::FSETP_LE: return boolVal(fa <= fb);
      case Opcode::FSETP_GT: return boolVal(fa > fb);
      case Opcode::FSETP_GE: return boolVal(fa >= fb);
      case Opcode::SIN:   return asReg(std::sin(fa));
      case Opcode::COS:   return asReg(std::cos(fa));
      case Opcode::SQRT:  return asReg(std::sqrt(fa));
      case Opcode::RSQRT: return asReg(1.0f / std::sqrt(fa));
      case Opcode::EX2:   return asReg(std::exp2(fa));
      case Opcode::LG2:   return asReg(std::log2(fa));
      case Opcode::RCP:   return asReg(1.0f / fa);
      case Opcode::LDG:
      case Opcode::STG:
      case Opcode::LDS:
      case Opcode::STS:
        // Effective-address computation: the part of a memory
        // instruction Warped-DMR verifies (data is ECC-protected).
        return a + static_cast<RegValue>(in.imm);
      case Opcode::BRA:
      case Opcode::BRZ:
      case Opcode::BRNZ:
      case Opcode::BAR:
      case Opcode::EXIT:
      case Opcode::NOP:
        return 0;
    }
    warped_panic("unhandled opcode in computeLane");
}

/**
 * One case of the plane switch: evaluates @p EXPR for every slot with
 * a/b/c (and their signed/float views) bound to that slot's operands.
 * The dead views are optimized away per case; keeping them in one
 * macro keeps the 50-odd cases readable and guarantees every case
 * uses exactly the computeLane expression.
 */
#define WARPED_PLANE_CASE(OP, EXPR)                                     \
    case Opcode::OP:                                                    \
        for (unsigned i = 0; i < ws; ++i) {                             \
            [[maybe_unused]] const RegValue a = A[i], b = B[i],         \
                                            c = C[i];                   \
            [[maybe_unused]] const auto sa = asSigned(a),               \
                                        sb = asSigned(b);               \
            [[maybe_unused]] const float fa = asFloat(a),               \
                                         fb = asFloat(b),               \
                                         fc = asFloat(c);               \
            out[i] = (EXPR);                                            \
        }                                                               \
        break;

void
Executor::computePlane(
    const isa::Instruction &in,
    const std::array<std::array<RegValue, kMaxWarp>, 3> &ops,
    const std::array<LaneInfo, kMaxWarp> &li, unsigned ws,
    RegValue *out)
{
    using isa::Opcode;
    const RegValue *A = ops[0].data();
    const RegValue *B = ops[1].data();
    const RegValue *C = ops[2].data();
    const auto immv = static_cast<RegValue>(in.imm);

    switch (in.op) {
      WARPED_PLANE_CASE(IADD, a + b)
      WARPED_PLANE_CASE(ISUB, a - b)
      WARPED_PLANE_CASE(IMUL, a * b)
      WARPED_PLANE_CASE(IMAD, a * b + c)
      WARPED_PLANE_CASE(IDIV, static_cast<RegValue>(sdiv(sa, sb)))
      WARPED_PLANE_CASE(IMOD, static_cast<RegValue>(smod(sa, sb)))
      WARPED_PLANE_CASE(IMIN, sa < sb ? a : b)
      WARPED_PLANE_CASE(IMAX, sa > sb ? a : b)
      WARPED_PLANE_CASE(AND, a & b)
      WARPED_PLANE_CASE(OR, a | b)
      WARPED_PLANE_CASE(XOR, a ^ b)
      WARPED_PLANE_CASE(NOT, ~a)
      WARPED_PLANE_CASE(SHL, a << (b & 31u))
      WARPED_PLANE_CASE(SHR, a >> (b & 31u))
      WARPED_PLANE_CASE(SRA, static_cast<RegValue>(sa >> (b & 31u)))
      WARPED_PLANE_CASE(SHLI, a << (immv & 31u))
      WARPED_PLANE_CASE(SHRI, a >> (immv & 31u))
      WARPED_PLANE_CASE(ANDI, a & immv)
      WARPED_PLANE_CASE(ISETP_EQ, boolVal(sa == sb))
      WARPED_PLANE_CASE(ISETP_NE, boolVal(sa != sb))
      WARPED_PLANE_CASE(ISETP_LT, boolVal(sa < sb))
      WARPED_PLANE_CASE(ISETP_LE, boolVal(sa <= sb))
      WARPED_PLANE_CASE(ISETP_GT, boolVal(sa > sb))
      WARPED_PLANE_CASE(ISETP_GE, boolVal(sa >= sb))
      WARPED_PLANE_CASE(SEL, a != 0 ? b : c)
      WARPED_PLANE_CASE(MOV, a)
      WARPED_PLANE_CASE(MOVI, immv)
      WARPED_PLANE_CASE(IADDI, a + immv)
      case Opcode::S2R:
        switch (static_cast<isa::SpecialReg>(in.imm)) {
          case isa::SpecialReg::Tid:
            for (unsigned i = 0; i < ws; ++i)
                out[i] = li[i].tid;
            break;
          case isa::SpecialReg::Ctaid:
            for (unsigned i = 0; i < ws; ++i)
                out[i] = li[i].ctaid;
            break;
          case isa::SpecialReg::Ntid:
            for (unsigned i = 0; i < ws; ++i)
                out[i] = li[i].ntid;
            break;
          case isa::SpecialReg::Nctaid:
            for (unsigned i = 0; i < ws; ++i)
                out[i] = li[i].nctaid;
            break;
          case isa::SpecialReg::LaneId:
            for (unsigned i = 0; i < ws; ++i)
                out[i] = li[i].laneId;
            break;
          case isa::SpecialReg::WarpId:
            for (unsigned i = 0; i < ws; ++i)
                out[i] = li[i].warpId;
            break;
          case isa::SpecialReg::Gtid:
            for (unsigned i = 0; i < ws; ++i)
                out[i] = li[i].ctaid * li[i].ntid + li[i].tid;
            break;
          default:
            warped_panic("bad S2R selector ", in.imm);
        }
        break;
      // Operand 0 already holds the gathered source value, so the
      // compute itself is identity (see stepInto).
      WARPED_PLANE_CASE(SHFL_XOR, a)
      WARPED_PLANE_CASE(SHFL_DOWN, a)
      WARPED_PLANE_CASE(I2F, asReg(static_cast<float>(sa)))
      WARPED_PLANE_CASE(
          F2I, static_cast<RegValue>(static_cast<std::int32_t>(fa)))
      WARPED_PLANE_CASE(FADD, asReg(fa + fb))
      WARPED_PLANE_CASE(FSUB, asReg(fa - fb))
      WARPED_PLANE_CASE(FMUL, asReg(fa * fb))
      WARPED_PLANE_CASE(FFMA, asReg(std::fma(fa, fb, fc)))
      WARPED_PLANE_CASE(FMIN, asReg(std::fmin(fa, fb)))
      WARPED_PLANE_CASE(FMAX, asReg(std::fmax(fa, fb)))
      WARPED_PLANE_CASE(FNEG, asReg(-fa))
      WARPED_PLANE_CASE(FSETP_EQ, boolVal(fa == fb))
      WARPED_PLANE_CASE(FSETP_NE, boolVal(fa != fb))
      WARPED_PLANE_CASE(FSETP_LT, boolVal(fa < fb))
      WARPED_PLANE_CASE(FSETP_LE, boolVal(fa <= fb))
      WARPED_PLANE_CASE(FSETP_GT, boolVal(fa > fb))
      WARPED_PLANE_CASE(FSETP_GE, boolVal(fa >= fb))
      WARPED_PLANE_CASE(SIN, asReg(std::sin(fa)))
      WARPED_PLANE_CASE(COS, asReg(std::cos(fa)))
      WARPED_PLANE_CASE(SQRT, asReg(std::sqrt(fa)))
      WARPED_PLANE_CASE(RSQRT, asReg(1.0f / std::sqrt(fa)))
      WARPED_PLANE_CASE(EX2, asReg(std::exp2(fa)))
      WARPED_PLANE_CASE(LG2, asReg(std::log2(fa)))
      WARPED_PLANE_CASE(RCP, asReg(1.0f / fa))
      // Effective-address computation (the verified part of a memory
      // instruction; data is ECC-protected).
      WARPED_PLANE_CASE(LDG, a + immv)
      WARPED_PLANE_CASE(STG, a + immv)
      WARPED_PLANE_CASE(LDS, a + immv)
      WARPED_PLANE_CASE(STS, a + immv)
      WARPED_PLANE_CASE(BRA, RegValue{0})
      WARPED_PLANE_CASE(BRZ, RegValue{0})
      WARPED_PLANE_CASE(BRNZ, RegValue{0})
      WARPED_PLANE_CASE(BAR, RegValue{0})
      WARPED_PLANE_CASE(EXIT, RegValue{0})
      WARPED_PLANE_CASE(NOP, RegValue{0})
      default:
        warped_panic("unhandled opcode in computePlane");
    }
}

#undef WARPED_PLANE_CASE

ExecRecord
Executor::step(arch::WarpContext &warp, const isa::Program &prog,
               mem::Memory &shared, const unsigned *lane_of, Cycle now)
{
    ExecRecord rec;
    stepInto(warp, prog, shared, lane_of, now, rec);
    return rec;
}

void
Executor::stepInto(arch::WarpContext &warp, const isa::Program &prog,
                   mem::Memory &shared, const unsigned *lane_of,
                   Cycle now, ExecRecord &rec,
                   std::vector<MemUndo> *undo)
{
    using isa::Opcode;

    const Pc pc = warp.stack().pc();
    const isa::Instruction &in = prog.at(pc);
    const LaneMask active = warp.stack().activeMask();
    const unsigned ws = warp.warpSize();

    rec.instr = in;
    rec.pc = pc;
    rec.active = active;
    rec.wasBranch = false;
    rec.wasBarrier = false;
    rec.wasExit = false;
    rec.warpId = 0;
    rec.traceId = 0;
    // Cleared below when the results pass through a live hook.
    rec.clean = true;

    if (active.none())
        warped_panic("executing with empty active mask at pc ", pc);

    // Per-instruction invariants, hoisted out of the lane loops.
    const unsigned n_srcs = in.numSrcs();
    const bool hooked = in.hasDst() || in.isMem();

    // SoA operand gather: whole register planes, active and inactive
    // slots alike. The extra lanes are never observable — every
    // consumer masks by rec.active — and the plane copy vectorizes
    // where the old per-lane strided gather could not.
    const arch::WarpContext &regs = warp; // reads must not mark writes
    for (unsigned s = 0; s < n_srcs; ++s)
        std::copy_n(regs.regPlane(in.src[s].idx), ws,
                    rec.operands[s].data());
    if (isa::opcodeIsShuffle(in.op)) [[unlikely]] {
        // Cross-lane gather: resolve each active slot's source slot
        // and record its value as operand 0. Inactive or out-of-range
        // sources keep the lane's own value (CUDA shuffle semantics
        // for missing lanes). Reads come from the register plane, not
        // the record, so the in-place permutation never observes its
        // own writes.
        const RegValue *plane = regs.regPlane(in.src[0].idx);
        for (unsigned slot = 0; slot < ws; ++slot) {
            if (!active.test(slot))
                continue;
            const unsigned src_slot =
                in.op == isa::Opcode::SHFL_XOR
                    ? slot ^ static_cast<unsigned>(in.imm)
                    : slot + static_cast<unsigned>(in.imm);
            if (src_slot < ws && active.test(src_slot))
                rec.operands[0][slot] = plane[src_slot];
        }
    }

    // Lane-info plane: only S2R reads it (computeLane/computePlane
    // ignore li for every other opcode, and so do all the record's
    // downstream consumers — verification re-executes the same
    // opcode), so everything else skips the 32-slot fill and leaves
    // whatever the record held.
    if (in.op == Opcode::S2R) {
        LaneInfo li;
        li.ctaid = static_cast<std::int32_t>(warp.blockId());
        li.ntid = static_cast<std::int32_t>(warp.blockDim());
        li.nctaid = static_cast<std::int32_t>(warp.gridDim());
        li.warpId = static_cast<std::int32_t>(warp.warpInBlock());
        const auto tid0 = static_cast<std::int32_t>(warp.tid(0));
        for (unsigned slot = 0; slot < ws; ++slot) {
            li.tid = tid0 + static_cast<std::int32_t>(slot);
            li.laneId = static_cast<std::int32_t>(slot);
            rec.laneInfo[slot] = li;
        }
    }

    if (hooked) {
        // One opcode switch for the whole warp instead of one per
        // lane (results for branches/barriers are unused, so the
        // plane compute is skipped for them entirely).
        computePlane(in, rec.operands, rec.laneInfo, ws,
                     rec.results.data());
        if (hookLiveAt(now)) {
            // Live fault boundary: per-slot virtual dispatch, in slot
            // order, exactly the sequence the campaign hooks saw
            // before the plane split — fault campaigns stay
            // byte-identical. A dormant hook is the identity here, so
            // skipping it cannot be observed.
            rec.clean = false;
            FaultCtx ctx;
            ctx.sm = smId_;
            ctx.unit = in.unit();
            ctx.cycle = now;
            ctx.isAddress = in.isMem();
            for (unsigned slot = 0; slot < ws; ++slot) {
                if (!active.test(slot))
                    continue;
                ctx.lane = lane_of ? lane_of[slot] : slot;
                rec.results[slot] =
                    hook_->apply(rec.results[slot], ctx);
            }
        }
    }

    // Perform architectural effects.
    switch (in.op) {
      case Opcode::BRA:
      case Opcode::BRZ:
      case Opcode::BRNZ: {
        rec.wasBranch = true;
        LaneMask taken;
        for (unsigned slot = 0; slot < ws; ++slot) {
            if (!active.test(slot))
                continue;
            bool t = true;
            if (in.op == Opcode::BRZ)
                t = rec.operands[0][slot] == 0;
            else if (in.op == Opcode::BRNZ)
                t = rec.operands[0][slot] != 0;
            if (t)
                taken.set(slot);
        }
        warp.stack().branch(taken, in.target, pc + 1, in.reconv);
        return;
      }
      case Opcode::BAR:
        rec.wasBarrier = true;
        warp.setAtBarrier(true);
        warp.stack().advanceTo(pc + 1);
        return;
      case Opcode::EXIT:
        rec.wasExit = true;
        warp.markExited(active);
        return;
      default:
        break;
    }

    // Memory accesses + register writes (SoA scatter).
    if (in.isMem()) {
        // A corrupted address is wrapped into the segment so the
        // simulation survives; the DMR comparator still sees the raw
        // mismatch. Power-of-two segments (the common case) wrap with
        // a mask instead of a per-lane divide.
        mem::Memory &m = opcodeIsSharedMem(in.op) ? shared : global_;
        const std::size_t msize = m.size();
        const bool pow2 = (msize & (msize - 1)) == 0;
        const auto wrap = [&](Addr addr) {
            return (pow2 ? (addr & static_cast<Addr>(msize - 1))
                         : addr % msize) &
                   ~Addr{3};
        };
        if (in.isLoad()) {
            RegValue *dst = warp.regPlane(in.dst.idx);
            for (unsigned slot = 0; slot < ws; ++slot) {
                if (!active.test(slot))
                    continue;
                dst[slot] = m.readWord(wrap(rec.results[slot]));
            }
        } else {
            for (unsigned slot = 0; slot < ws; ++slot) {
                if (!active.test(slot))
                    continue;
                const Addr addr = wrap(rec.results[slot]);
                if (undo) [[unlikely]]
                    undo->push_back({&m, addr, m.readWord(addr)});
                m.writeWord(addr, rec.operands[1][slot]);
            }
        }
    } else if (in.hasDst()) {
        // Branchless masked blend into the destination plane:
        // inactive slots rewrite their own value.
        RegValue *dst = warp.regPlane(in.dst.idx);
        for (unsigned slot = 0; slot < ws; ++slot)
            dst[slot] =
                active.test(slot) ? rec.results[slot] : dst[slot];
    }

    warp.stack().advanceTo(pc + 1);
}

} // namespace func
} // namespace warped
