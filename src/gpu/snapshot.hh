/**
 * @file
 * Value-semantic machine state for resuming a launch mid-flight.
 *
 * A gpu::Snapshot is the live state of one launch at the top of one
 * cycle: every SM's sm::Sm::State (warps, SIMT stacks, planes, active
 * blocks and their shared memory, scoreboard, statistics, protection
 * scheme and recovery state), the launch loop's counters, the memory
 * system's bank/partition timing and the written span of global
 * memory. A resident machine is captured where it stands
 * (Gpu::capture) and restored to a snapshot in place (Gpu::restore);
 * cycles stay absolute, so a restored machine run to the end
 * (Gpu::finish) reports exactly what the uninterrupted launch did.
 * The trace recorder is not part of a snapshot (campaign machines run
 * with GpuConfig::traceEvents off): a restored, traced machine
 * records from its restore cycle on.
 *
 * A gpu::Ladder is what fault campaigns capture: its golden pass
 * steps a resident machine from cycle 0 to the end, keeps one
 * snapshot (a *rung*) every K cycles, and records, for every cycle,
 * how far ahead the hook calls made so far looked (the horizon
 * table). Each injected run forks from the golden run at the latest
 * cycle its fault cannot have touched, which the horizon table names;
 * the rungs are where a campaign's resident golden machine restarts
 * to reach that cycle (see docs/FAULT_MODEL.md, "Snapshot fork"). The
 * capture also logs which SM and cycle every hook call named, so a
 * campaign can settle a fault whose window no call touched without
 * simulating it ("Golden activity oracle").
 */

#ifndef WARPED_GPU_SNAPSHOT_HH
#define WARPED_GPU_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "func/fault_hook.hh"
#include "gpu/launch_loop.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "mem/memory_system.hh"
#include "sm/plane_store.hh"
#include "sm/sm.hh"
#include "stats/launch_result.hh"

namespace warped {
namespace gpu {

class Gpu;

/** One launch's live state at the top of a cycle (see file comment).
 *  Move-only; restoring copies out of it, so one snapshot serves any
 *  number of restored machines, concurrently. Snapshots of one launch
 *  share what did not change between them: the register planes and
 *  an unchanged global-memory image. */
struct Snapshot
{
    LaunchLoop::Counters loop;
    /** The launch's geometry, checked on resume. */
    unsigned gridBlocks = 0;
    unsigned blockThreads = 0;
    /** Per SM; an SM untouched between two snapshots shares one. */
    std::vector<std::shared_ptr<sm::Sm::State>> sms;
    /** Register planes the SM states index (shared). */
    std::shared_ptr<sm::PlaneStore> planes;
    /** Memory-system timing, when the machine models one. */
    std::optional<mem::MemorySystem::State> memSys;
    /** Global memory's written span (shared while unchanged). */
    std::shared_ptr<const mem::Memory::Span> dram;

    /** Heap and inline bytes held, shared parts aside. */
    std::size_t bytes() const;
};

/**
 * Which (SM, cycle) pairs a golden pass's hook calls named: one bit
 * per cycle below kMaxCycles for each SM, and for the cycles at or
 * beyond it (R-Naive's modelled second run applies at now + 2^40)
 * only their lowest and highest, a conservative range. The bitmap
 * grows by doubling with the highest cycle named below the cap, so it
 * costs at most a quarter of a byte per SM and golden cycle.
 */
class ActivityLog
{
  public:
    static constexpr Cycle kMaxCycles = Cycle{1} << 20;

    void note(unsigned sm, Cycle cycle);
    /** No noted call named SM @p sm at a cycle in [lo, hi]. */
    bool quiet(unsigned sm, Cycle lo, Cycle hi) const;

  private:
    struct PerSm
    {
        std::vector<std::uint64_t> bits;
        /** Range of the cycles at or beyond kMaxCycles noted
         *  (empty while beyondLo > beyondHi). */
        Cycle beyondLo = ~Cycle{0};
        Cycle beyondHi = 0;
    };
    std::vector<PerSm> sms_;
};

/**
 * The fault-free hook of a golden pass that captures a ladder: never
 * live and the identity, so the pass runs exactly like the fault-free
 * machine, but it remembers the furthest cycle any liveAt query or
 * apply call has named, and during which simulated cycle (clock())
 * that horizon rose. Calls can look ahead of the cycle being
 * simulated (an eager re-execution verifies at now + 1; the software
 * schemes apply at a modelled second-run cycle), which is why a fork
 * is only sound for faults beyond the horizon. It also logs the
 * (SM, cycle) every call named: a fault window on an SM no call named
 * cannot activate (docs/FAULT_MODEL.md, "Golden activity oracle").
 */
class HorizonHook final : public func::FaultHook
{
  public:
    /** The horizon after the calls made during cycle `at`. */
    struct Step
    {
        Cycle at = 0;
        Cycle bound = 0;
    };

    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        note(ctx.sm, ctx.cycle);
        return pure;
    }
    bool
    liveAt(unsigned sm, Cycle cycle) const override
    {
        note(sm, cycle);
        return false;
    }
    /** Every call so far named a cycle below this (0: no call yet). */
    Cycle bound() const { return bound_; }
    /** Each rise of bound(), tagged with the cycle being simulated
     *  when it happened: `at` strictly increasing, `bound` too. */
    const std::vector<Step> &steps() const { return steps_; }
    /** The (SM, cycle) pairs every call so far named. */
    const ActivityLog &log() const { return log_; }
    /** The cycle being simulated; the capturing machine keeps it
     *  current (Gpu::start). */
    Cycle *clock() { return &now_; }

  private:
    void
    note(unsigned sm, Cycle c) const
    {
        if (c >= bound_) {
            bound_ = c + 1;
            if (!steps_.empty() && steps_.back().at == now_)
                steps_.back().bound = bound_;
            else
                steps_.push_back({now_, bound_});
        }
        log_.note(sm, c);
    }
    Cycle now_ = 0;
    mutable Cycle bound_ = 0;
    mutable std::vector<Step> steps_;
    mutable ActivityLog log_;
};

/**
 * Snapshots of one golden pass from cycle 0, one rung every spacing()
 * cycles, plus the pass's per-cycle horizon table. Fixed caps bound
 * the rungs: at most kMaxRungs rungs and kMaxBytes bytes, shared
 * register planes and memory images counted once. A rung that would
 * exceed either cap first drops every other rung and doubles the
 * spacing (rung 0, the launch's starting state, always stays). The
 * table holds one step per cycle in which the horizon rose
 * (HorizonHook::steps), 16 bytes each.
 * Immutable once capture() returns; machines on any number of threads
 * may share it.
 */
class Ladder
{
  public:
    static constexpr Cycle kInitialSpacing = 512;
    static constexpr std::size_t kMaxRungs = 32;
    static constexpr std::size_t kMaxBytes = std::size_t{2} << 20;

    struct Rung
    {
        Snapshot snap;
        /** Snapshot::bytes, plus the memory image when it is the
         *  first rung holding it. */
        std::size_t bytes = 0;
    };

    /**
     * The golden pass: bind @p golden (set up for the launch of
     * @p prog over @p grid_blocks x @p block_threads) at cycle 0 under
     * the ladder's fault-free HorizonHook, keeping its clock
     * (Gpu::start); step it to each rung's cycle and capture it there
     * (Gpu::advanceTo, Gpu::capture); then run it to the launch's end.
     * The machine stays bound under that hook. Call once per ladder.
     * @return the launch's result (Gpu::finish).
     */
    stats::LaunchResult capture(Gpu &golden, const isa::Program &prog,
                                unsigned grid_blocks,
                                unsigned block_threads);

    /**
     * The hook horizon at the top of cycle @p cycle: every hook call
     * the golden pass made before that cycle named a cycle below
     * it (HorizonHook::bound then). Nondecreasing; 0 at cycle 0. A
     * cycle past the launch's end has the horizon of its end.
     */
    Cycle horizon(Cycle cycle) const;

    /**
     * The cycle a run whose execution-unit fault can first act at
     * cycle @p begin forks from the golden run at: the latest
     * c <= @p begin with horizon(c) <= @p begin, so no hook call the
     * golden prefix made before c could have met the fault (cycle 0
     * always qualifies). A memory upset forks at its strike cycle
     * instead: the fault plane is inert before it.
     */
    Cycle execFork(Cycle begin) const;

    /** The latest rung at or before cycle @p cycle: where a golden
     *  machine restarts to reach that cycle. */
    const Snapshot &rungAt(Cycle cycle) const;

    /**
     * No hook call of the golden pass named SM @p sm at a cycle
     * in [lo, hi]. An execution-unit fault on that SM whose window is
     * [lo, hi] then never activates (docs/FAULT_MODEL.md, "Golden
     * activity oracle").
     */
    bool
    quiet(unsigned sm, Cycle lo, Cycle hi) const
    {
        return hook_.log().quiet(sm, lo, hi);
    }

    const std::vector<Rung> &rungs() const { return rungs_; }
    Cycle spacing() const { return spacing_; }
    /** Rung bytes plus the shared register planes. */
    std::size_t bytes() const;

  private:
    /** The first cycle at or after @p cycle to take a rung at. */
    Cycle
    nextWanted(Cycle cycle) const
    {
        return (cycle + spacing_ - 1) / spacing_ * spacing_;
    }
    /** Keep @p s, a snapshot at a cycle nextWanted() named, within
     *  the caps. */
    void take(Snapshot &&s);
    /** Sum of rungs_[i].bytes. */
    std::size_t rungBytes() const;
    /** Drop every other rung, double the spacing, and compact the
     *  plane store over the survivors and @p pending (when kept). */
    void thin(Rung *pending);

    HorizonHook hook_;
    std::vector<Rung> rungs_;
    Cycle spacing_ = kInitialSpacing;
};

} // namespace gpu
} // namespace warped

#endif // WARPED_GPU_SNAPSHOT_HH
