/**
 * @file
 * One streaming multiprocessor: warp state, the single warp scheduler
 * feeding SP / SFU / LD-ST units (paper §2.2), the scoreboard, and the
 * attached protection backend (Warped-DMR by default).
 *
 * Pipeline model (Fig 7): FETCH(1) and DEC/SCHED(1) are folded into
 * the scheduler (functional-first simulation resolves branches at
 * schedule time); RF takes rfStages cycles and EXE is super-pipelined
 * with per-unit-type latency, so a destination register written by an
 * instruction issued at cycle t is readable at t + rfStages + lat.
 * At most one warp instruction issues per cycle per SM.
 */

#ifndef WARPED_SM_SM_HH
#define WARPED_SM_SM_HH

#include <memory>
#include <optional>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/warp_context.hh"
#include "dmr/dmr_config.hh"
#include "func/executor.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "mem/memory_system.hh"
#include "protection/protection_scheme.hh"
#include "recovery/recovery_config.hh"
#include "recovery/recovery_manager.hh"
#include "sm/plane_store.hh"
#include "sm/scoreboard.hh"
#include "sm/sm_stats.hh"
#include "trace/recorder.hh"

namespace warped {
namespace sm {

class Sm
{
  public:
    /**
     * @param cfg    machine description
     * @param dmr    Warped-DMR configuration
     * @param sm_id  this SM's index
     * @param prog   the kernel being executed
     * @param global GPU global memory
     * @param hook   execution-unit fault boundary
     * @param seed   RNG seed (ReplayQ random pick)
     * @param mem_sys optional contention model
     * @param rcfg   rollback-replay recovery knobs (default: off —
     *               the recovery engine is not even constructed and
     *               every hot-path hook is one null-pointer test)
     * @param scfg   which protection backend guards this SM (default:
     *               Warped-DMR, i.e. the DmrEngine under @p dmr)
     */
    Sm(const arch::GpuConfig &cfg, const dmr::DmrConfig &dmr,
       unsigned sm_id, const isa::Program &prog, mem::Memory &global,
       func::FaultHook &hook, std::uint64_t seed,
       mem::MemorySystem *mem_sys = nullptr,
       const recovery::RecoveryConfig &rcfg = {},
       const protection::SchemeConfig &scfg = {});

    /** Room for another block of @p block_threads threads? */
    bool canAcceptBlock(unsigned block_threads) const;

    /** Make a block resident. */
    void assignBlock(unsigned block_id, unsigned block_threads,
                     unsigned grid_dim);

    /** Any resident unfinished warp? */
    bool busy() const { return vars_.residentWarps > 0; }

    /** All work done *and* all pending verifications performed? */
    bool
    drained() const
    {
        return !busy() && !scheme_->hasPending() &&
               scheme_->replayQueueSize() == 0 &&
               (!recovery_ || recovery_->idle());
    }

    /** Advance one core-clock cycle. */
    void tick(Cycle now);

    /**
     * Emit structured trace events (issue/commit here, plus the DMR
     * engine's and ReplayQ's seams) to @p rec. Call before the first
     * tick; nullptr (the default state) keeps tracing at one pointer
     * test per seam.
     */
    void
    attachRecorder(trace::Recorder *rec)
    {
        recorder_ = rec;
        scheme_->attachRecorder(rec);
        if (recovery_)
            recovery_->attachRecorder(rec);
    }

    /** Recovery engine, or nullptr when recovery is disabled. */
    const recovery::RecoveryManager *recovery() const
    {
        return recovery_.get();
    }

    SmStats &stats() { return stats_; }
    const SmStats &stats() const { return stats_; }
    protection::ProtectionScheme &scheme() { return *scheme_; }
    const protection::ProtectionScheme &scheme() const
    {
        return *scheme_;
    }
    unsigned id() const { return smId_; }

    /** The SM's scalar state: what the rung capture, the rung
     *  restore and the fork copy with one assignment. */
    struct Vars
    {
        std::uint64_t issueSeq = 0; ///< per-SM issue index (traceId low)
        unsigned residentWarps = 0;
        unsigned residentThreads = 0;
        /** 1 + highest occupied warp slot: warp allocation is
         *  first-fit from slot 0, so the scheduler scan never needs to
         *  look past this. Cyclic (LRR) order over the occupied slots
         *  is the same mod scanLimit as mod the warp slots because
         *  every occupied slot is below it. */
        unsigned scanLimit = 0;
        /** Active blocks with at least one warp waiting at the
         *  barrier; releaseBarriers() is skipped when zero. */
        unsigned barrierBlocks = 0;
        unsigned lastScheduled = 0;
        unsigned stallCycles = 0;
        Cycle lastProgress = 0;
        Cycle ldstPortFreeAt = 0; ///< coalescing: port busy horizon
    };

    /** A block slot's occupancy, copied by value with the SM. */
    struct BlockVars
    {
        bool active = false;
        unsigned blockId = 0;
        /** Resident warps not yet finished. */
        unsigned liveWarps = 0;
        /** Live warps currently waiting at the block barrier. */
        unsigned barrierWaiters = 0;
        std::vector<unsigned> warpSlots;
    };

    /**
     * The SM's live state at a cycle boundary (snapshot support):
     * resident warps — context, schedulability, PC, block and
     * scoreboard row — active block slots with their shared memory,
     * statistics, the protection scheme's and the recovery engine's
     * state, and the scheduler's counters. Pooled contexts of empty
     * warp slots and retired blocks' shared segments are not live —
     * assignBlock reinitialises both — and are left out.
     */
    struct State
    {
        explicit State(const SmStats &st) : stats(st) {}

        /** A resident (non-empty) warp slot. */
        struct Warp
        {
            unsigned slot = 0;
            std::uint8_t state = 0; ///< kWarp* schedulability
            Pc pc = 0;
            int blockSlot = -1;
            unsigned stackDepth = 0;
            arch::WarpContext::Header header;
        };

        /** An active block slot. */
        struct Block : BlockVars
        {
            unsigned slot = 0;
            std::size_t sharedBytes = 0;
            /** Shared with the previous capture while unchanged. */
            std::shared_ptr<const mem::Memory::Span> shared;
        };

        /** A scoreboard entry still in flight at the capture cycle:
         *  register r of the i-th resident warp, at i * numRegs + r. */
        struct Pending
        {
            std::uint32_t at = 0;
            Cycle readyAt = 0;
        };

        /** Resident warps (empty slots are all alike: no state, no
         *  block, zero scoreboard row); then, back to back in the same
         *  order, their SIMT stack entries and their registers as
         *  PlaneStore indices (numRegs each). */
        std::vector<Warp> warps;
        std::vector<arch::SimtStack::Entry> stacks;
        std::vector<std::uint32_t> planes;
        /** The scoreboard's live part. An entry at or before the
         *  capture cycle is dead: readiness is only asked about later
         *  cycles, and an issue only raises an entry past them. */
        std::vector<Pending> pending;
        std::vector<Block> blocks;
        SmStats stats;
        std::unique_ptr<protection::SchemeState> scheme;
        /** Recovery engine copy (recovery on), its memory-undo
         *  pointers cleared; undoTargets names each entry's memory
         *  in CheckpointRing::forEachUndo order: 0 = global,
         *  1 + k = block slot k's shared segment. */
        std::optional<recovery::RecoveryManager> recovery;
        std::vector<unsigned> undoTargets;
        Vars vars;

        /** Heap and inline bytes held, register planes aside (rung
         *  budgeting). */
        std::size_t bytes() const;
    };

    /** Capture the state at the top of cycle @p now; register planes
     *  written since this SM's previous capture into @p planes go
     *  there, unchanged ones are referenced again. An SM untouched
     *  since its previous capture (idle: not ticked, no block
     *  assigned) returns that capture. */
    std::shared_ptr<State> saveState(PlaneStore &planes, Cycle now);
    /**
     * Resume from @p s, whose registers live in @p planes. The SM must
     * be built for the same program and configuration as the saving
     * one; it may be fresh or may already have run, to completion or
     * part way (an aborted fault site included). Everything the next
     * cycle can read is overwritten: warp slots, scoreboard rows and
     * block slots the snapshot does not hold are emptied, pooled
     * contexts and shared segments are reused in place, and the
     * capture cache is dropped so the next saveState is a full one.
     */
    void restoreState(const State &s, const PlaneStore &planes);

    /**
     * The machine fork: make this SM equal to @p golden, an SM built
     * for the same program and configuration (gpu::Gpu::forkFrom),
     * whatever this one ran since — statistics, protection scheme and
     * recovery state included. It copies into this SM's own buffers.
     * Warp headers, SIMT stacks, the scoreboard, block slots and the
     * counters are always copied. Of a resident warp's register file
     * only the planes either SM wrote since this pair's previous fork
     * are copied (arch::WarpContext::takeWritten, consumed on both
     * sides), and a block's shared memory only when either segment's
     * write epoch moved. Any other capture, restore or fork on either
     * SM in between makes the next fork copy them all.
     * @return register planes copied.
     */
    std::uint64_t copyFrom(Sm &golden);

    /** Run every later value through @p hook (see Executor::setHook). */
    void setHook(func::FaultHook &hook) { exec_.setHook(hook); }

  private:
    struct BlockSlot : BlockVars
    {
        std::unique_ptr<mem::Memory> shared;
    };

    // Schedulability of each warp slot, mirrored out of the
    // WarpContext objects into one byte array: the per-cycle
    // scheduler scan walks maxWarps_ slots and must not pull a
    // multi-KB context into cache just to learn the slot is not
    // issuable. Kept in sync wherever the underlying predicate
    // (!warp || finished || atBarrier) can change: assignBlock,
    // the post-execute step in tryIssue, releaseBarriers and
    // retireIfDone.
    static constexpr std::uint8_t kWarpEmpty = 0;
    static constexpr std::uint8_t kWarpReady = 1;
    static constexpr std::uint8_t kWarpBarrier = 2;
    static constexpr std::uint8_t kWarpFinished = 3;

    enum class IssueOutcome { None, Issued, Stalled };

    void releaseBarriers();
    void retireIfDone(unsigned block_slot);
    IssueOutcome tryIssue(unsigned warp_slot, Cycle now,
                          isa::UnitType &unit_out);
    unsigned bankConflictCycles(const isa::Instruction &in) const;
    Cycle writebackTime(const isa::Instruction &in, Cycle now) const;
    void recordIssue(const func::ExecRecord &rec, Cycle now);

    /** Cold path: build + record the Issue event. Kept out of line so
     *  the recorder_ == nullptr fast path stays free of dead code. */
    [[gnu::noinline]]
    void traceIssue(const func::ExecRecord &rec, unsigned active,
                    Cycle now);

    /** Cold path: build + record the Commit event. */
    [[gnu::noinline]]
    void traceCommit(const func::ExecRecord &rec,
                     const isa::Instruction &in, Cycle ready,
                     Cycle now);

    const arch::GpuConfig &cfg_;
    mem::MemorySystem *memSys_;
    unsigned smId_;
    const isa::Program &prog_;
    mem::Memory &global_;
    func::Executor exec_;
    std::unique_ptr<protection::ProtectionScheme> scheme_;
    /** Rollback-replay engine; null when recovery is disabled. */
    std::unique_ptr<recovery::RecoveryManager> recovery_;
    Scoreboard scoreboard_;
    SmStats stats_;

    trace::Recorder *recorder_ = nullptr;

    unsigned maxWarps_;
    /** Warp contexts are pooled: a slot's context survives block
     *  retirement (warpState_ == kWarpEmpty marks the slot free) and
     *  is reinit()ed in place by the next assignBlock, so
     *  steady-state launches never reallocate register files. An
     *  empty optional only means the slot has never been used. */
    std::vector<std::optional<arch::WarpContext>> warps_;
    std::vector<std::uint8_t> warpState_; ///< kWarp* per slot
    /** Per-slot PC plane, mirrored out of the SIMT stacks like
     *  warpState_: the scheduler's unit peek and tryIssue's
     *  instruction fetch read this contiguous array instead of
     *  chasing warp-object -> stack -> top-entry pointers. Synced
     *  wherever the stack moves: assignBlock, the post-execute step
     *  in tryIssue, and rollback. Only meaningful while
     *  warpState_ == kWarpReady or kWarpBarrier. */
    std::vector<Pc> warpPc_;
    std::vector<int> warpBlockSlot_; ///< warp slot -> block slot or -1
    std::vector<BlockSlot> blocks_;
    Vars vars_;
    /** Plane indices of each warp slot's registers at the previous
     *  saveState ([slot * numRegs + r]), valid for capturedInto_ at
     *  capturedGen_. */
    std::vector<std::uint32_t> capturedPlanes_;
    const PlaneStore *capturedInto_ = nullptr;
    std::uint64_t capturedGen_ = 0;
    /** Per block slot: the shared-memory image last captured, of
     *  which segment, at which write epoch. */
    struct CapturedShared
    {
        std::shared_ptr<const mem::Memory::Span> span;
        const mem::Memory *of = nullptr;
        std::uint64_t epoch = 0;
    };
    std::vector<CapturedShared> capturedShared_;
    /** Drop the capture cache: the next saveState is a full one. */
    void forgetCapture();

    /** The SM this one last forked from or into (copyFrom), while
     *  neither has consumed its warps' write bits another way since;
     *  the pair is in sync only when each names the other. */
    const Sm *pairedWith_ = nullptr;
    /** Per block slot: both shared segments and their write epochs
     *  when copyFrom last left them equal. */
    struct ForkedShared
    {
        const mem::Memory *golden = nullptr;
        const mem::Memory *site = nullptr;
        std::uint64_t goldenEpoch = 0;
        std::uint64_t siteEpoch = 0;
    };
    std::vector<ForkedShared> forkedShared_;
    /** The previous capture, and mutations_ when it was taken. */
    std::shared_ptr<State> captured_;
    std::uint64_t capturedAt_ = 0;
    /** Ticks plus block assignments: unchanged means untouched. */
    std::uint64_t mutations_ = 0;
};

} // namespace sm
} // namespace warped

#endif // WARPED_SM_SM_HH
