/**
 * @file
 * Functional executor: executes one warp instruction (execute-at-
 * schedule), updating architectural state, and records everything the
 * DMR machinery later needs to re-execute and compare (per-lane
 * operands, per-lane results/addresses, the lane info).
 */

#ifndef WARPED_FUNC_EXECUTOR_HH
#define WARPED_FUNC_EXECUTOR_HH

#include <algorithm>
#include <array>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/warp_context.hh"
#include "common/lane_mask.hh"
#include "func/fault_hook.hh"
#include "isa/program.hh"
#include "mem/memory.hh"

namespace warped {
namespace func {

/** Per-thread context needed to evaluate S2R. */
struct LaneInfo
{
    std::int32_t tid = 0;
    std::int32_t ctaid = 0;
    std::int32_t ntid = 0;
    std::int32_t nctaid = 0;
    std::int32_t laneId = 0;
    std::int32_t warpId = 0;
};

/** Maximum warp width the recording arrays support. */
constexpr unsigned kMaxWarp = 64;

/**
 * Undo record for one memory word clobbered by a store. The recovery
 * engine collects these during execution so a rollback can restore
 * the pre-store contents in reverse write order.
 */
struct MemUndo
{
    mem::Memory *mem = nullptr;
    Addr addr = 0;
    RegValue old = 0;
};

/**
 * Everything observable about one executed warp instruction.
 * This is the payload that flows down the timing pipeline and into
 * the DMR engine.
 */
struct ExecRecord
{
    isa::Instruction instr;
    Pc pc = 0;
    unsigned warpId = 0;      ///< warp slot within the SM
    /** Launch-unique issue id ((sm << 40) | per-SM issue index),
     *  stamped by Sm::recordIssue. Trace events reference it so the
     *  test suites can pair every verification with exactly one
     *  issue; 0 for records that never passed through an SM issue
     *  slot (unit-test fixtures). */
    std::uint64_t traceId = 0;
    LaneMask active;          ///< thread-slot active mask
    bool wasBranch = false;
    bool wasBarrier = false;
    bool wasExit = false;
    /** The results are the pure function of the operands: no live
     *  fault hook touched them (Executor::stepInto stamps this from
     *  its hookLiveAt query). A verification of a clean record at a
     *  cycle the hook is not live either cannot disagree, so the DMR
     *  engine counts it instead of re-executing it. Every other
     *  record (hand-built fixtures included) stays false and takes
     *  the full recompute-and-compare path. */
    bool clean = false;

    /** Per-thread-slot source operand values (index [src][slot]). */
    std::array<std::array<RegValue, kMaxWarp>, 3> operands{};
    /** Per-thread-slot result: dest value, or the computed byte
     *  address for memory instructions. */
    std::array<RegValue, kMaxWarp> results{};
    /** Per-thread-slot S2R context (verification must reproduce it). */
    std::array<LaneInfo, kMaxWarp> laneInfo{};

    /** Is there a per-lane value to verify (dst or address)? */
    bool
    verifiable() const
    {
        return instr.hasDst() || instr.isMem();
    }

    /**
     * Assign from @p o, copying only the first @p ws thread slots of
     * the per-slot planes — and only the operand planes @p o's opcode
     * reads. Headers, the active mask and every slot a consumer may
     * touch (all < @p ws, since `active` covers at most the machine's
     * warp size) match full assignment exactly; slots >= @p ws keep
     * whatever was there before. Saves ~2 KB per ReplayQ push at warp
     * size 32 vs copying the whole kMaxWarp-wide record.
     */
    void
    copyFrom(const ExecRecord &o, unsigned ws)
    {
        if (ws > kMaxWarp)
            ws = kMaxWarp;
        instr = o.instr;
        pc = o.pc;
        warpId = o.warpId;
        traceId = o.traceId;
        active = o.active;
        wasBranch = o.wasBranch;
        wasBarrier = o.wasBarrier;
        wasExit = o.wasExit;
        clean = o.clean;
        for (unsigned s = 0; s < o.instr.numSrcs(); ++s)
            std::copy_n(o.operands[s].data(), ws, operands[s].data());
        std::copy_n(o.results.data(), ws, results.data());
        // Lane info is only ever read back for S2R re-execution.
        if (o.instr.op == isa::Opcode::S2R)
            std::copy_n(o.laneInfo.data(), ws, laneInfo.data());
    }
};

/**
 * ExecRecords stored at the machine's warp width: each record's header
 * plus exactly the planes ExecRecord::copyFrom would copy, packed into
 * shared arrays — about a fifth of a kMaxWarp-wide record per entry at
 * warp size 32, and three allocations for any number of records.
 * Snapshot rungs keep queued and pending records in this form.
 */
class PackedRecords
{
  public:
    explicit PackedRecords(unsigned ws = 0) : ws_(ws) {}

    std::size_t size() const { return heads_.size(); }
    bool empty() const { return heads_.empty(); }

    /** Room for @p n records without reallocating. */
    void
    reserve(std::size_t n)
    {
        heads_.reserve(n);
        planes_.reserve(n * 4 * ws_);
    }

    /** Append the first ws thread slots of @p r. */
    void
    append(const ExecRecord &r)
    {
        Head h{r.instr,      r.pc,      r.warpId,
               r.traceId,    r.active,  r.wasBranch,
               r.wasBarrier, r.wasExit, r.clean,
               planes_.size(), laneInfo_.size()};
        heads_.push_back(h);
        for (unsigned s = 0; s < r.instr.numSrcs(); ++s)
            planes_.insert(planes_.end(), r.operands[s].begin(),
                           r.operands[s].begin() + ws_);
        planes_.insert(planes_.end(), r.results.begin(),
                       r.results.begin() + ws_);
        if (r.instr.op == isa::Opcode::S2R)
            laneInfo_.insert(laneInfo_.end(), r.laneInfo.begin(),
                             r.laneInfo.begin() + ws_);
    }

    /** Write record @p i into @p r as ExecRecord::copyFrom of the
     *  original record at warp width ws would. */
    void
    unpack(std::size_t i, ExecRecord &r) const
    {
        const Head &h = heads_[i];
        r.instr = h.instr;
        r.pc = h.pc;
        r.warpId = h.warpId;
        r.traceId = h.traceId;
        r.active = h.active;
        r.wasBranch = h.wasBranch;
        r.wasBarrier = h.wasBarrier;
        r.wasExit = h.wasExit;
        r.clean = h.clean;
        const RegValue *p = planes_.data() + h.planeAt;
        for (unsigned s = 0; s < h.instr.numSrcs(); ++s, p += ws_)
            std::copy_n(p, ws_, r.operands[s].data());
        std::copy_n(p, ws_, r.results.data());
        if (h.instr.op == isa::Opcode::S2R)
            std::copy_n(laneInfo_.data() + h.laneAt, ws_,
                        r.laneInfo.data());
    }

    /** The header of record @p i, without unpacking it. */
    const isa::Instruction &instr(std::size_t i) const
    {
        return heads_[i].instr;
    }

    std::size_t
    bytes() const
    {
        return sizeof(*this) + heads_.size() * sizeof(Head) +
               planes_.size() * sizeof(RegValue) +
               laneInfo_.size() * sizeof(LaneInfo);
    }

  private:
    struct Head
    {
        isa::Instruction instr;
        Pc pc;
        unsigned warpId;
        std::uint64_t traceId;
        LaneMask active;
        bool wasBranch;
        bool wasBarrier;
        bool wasExit;
        bool clean;
        std::size_t planeAt; ///< read operand planes, then results
        std::size_t laneAt;  ///< S2R only
    };

    unsigned ws_;
    std::vector<Head> heads_;
    std::vector<RegValue> planes_;
    std::vector<LaneInfo> laneInfo_;
};

/**
 * Executes instructions for the warps of one SM.
 */
class Executor
{
  public:
    /**
     * @param cfg     machine description (latencies unused here)
     * @param sm_id   SM index, forwarded to the fault hook
     * @param global  the GPU's global memory
     * @param hook    execution-unit fault boundary
     */
    Executor(const arch::GpuConfig &cfg, unsigned sm_id,
             mem::Memory &global, FaultHook &hook);

    /**
     * Pure per-lane computation: what the instruction produces for one
     * thread given operand values. For memory instructions this is
     * the effective byte address. Has no side effects; used by both
     * primary execution and DMR re-execution.
     */
    static RegValue computeLane(const isa::Instruction &in,
                                const std::array<RegValue, 3> &ops,
                                const LaneInfo &li);

    /**
     * Plane (structure-of-arrays) form of computeLane: evaluate the
     * instruction for all @p ws thread slots at once, writing
     * @p out [0..ws). The opcode switch runs once per warp instead of
     * once per lane, so the per-case loops vectorize. All slots are
     * computed, active or not — callers mask by ExecRecord::active.
     * Bit-identical to computeLane on every slot.
     */
    static void computePlane(
        const isa::Instruction &in,
        const std::array<std::array<RegValue, kMaxWarp>, 3> &ops,
        const std::array<LaneInfo, kMaxWarp> &li, unsigned ws,
        RegValue *out);

    /**
     * Execute the instruction at the warp's current PC for its active
     * mask: reads operands, computes per-lane results through the
     * fault hook (at physical lane = @p lane_of [slot]), performs
     * memory accesses and register writes, and advances the SIMT
     * stack.
     *
     * @param warp     warp functional state
     * @param prog     kernel image
     * @param shared   the warp's block's shared-memory segment
     * @param lane_of  thread-slot -> physical-lane permutation
     *                 (thread-core mapping, §4.2); identity when null
     * @param now      current cycle (fault-hook context)
     */
    ExecRecord step(arch::WarpContext &warp, const isa::Program &prog,
                    mem::Memory &shared, const unsigned *lane_of,
                    Cycle now);

    /**
     * step() into a caller-owned record. The hot-path variant: the
     * SM reuses one scratch ExecRecord across issues, so the ~2.6 KB
     * of per-lane arrays are not zero-initialized on every
     * instruction. Scalar fields are reset here; array slots are only
     * written for lanes in the active mask, so stale data from a
     * previous issue is never observable (every consumer masks by
     * ExecRecord::active).
     *
     * When @p undo is non-null, every store appends the clobbered
     * word's previous contents to it (recovery checkpointing); loads
     * and register writes need no entries — the recovery delta saves
     * old destination registers itself.
     */
    void stepInto(arch::WarpContext &warp, const isa::Program &prog,
                  mem::Memory &shared, const unsigned *lane_of,
                  Cycle now, ExecRecord &rec,
                  std::vector<MemUndo> *undo = nullptr);

    unsigned smId() const { return smId_; }
    FaultHook &hook() { return *hook_; }
    /** Route every later value through @p hook instead (a resident
     *  machine runs each fault site under its own hook). */
    void setHook(FaultHook &hook) { hook_ = &hook; }

    /** May the fault boundary change a value this SM produces at
     *  @p now? When not, execution and DMR re-execution take the
     *  vectorized plane path with no per-lane virtual dispatch
     *  (FaultHook::liveAt). */
    bool hookLiveAt(Cycle now) const { return hook_->liveAt(smId_, now); }

  private:
    const arch::GpuConfig &cfg_;
    unsigned smId_;
    mem::Memory &global_;
    FaultHook *hook_;
};

} // namespace func
} // namespace warped

#endif // WARPED_FUNC_EXECUTOR_HH
