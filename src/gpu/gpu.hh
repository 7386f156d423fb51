/**
 * @file
 * The GPGPU chip: global memory, the block dispatcher, and the
 * kernel-launch entry point over all SMs.
 *
 * A Gpu owns global memory and, once a launch is bound, a *machine*:
 * the launch's SMs, the chip's memory system and the launch loop's
 * position. Every simulation drives that machine through one path,
 * gpu::LaunchLoop (block dispatch + tick + watchdog), and
 * stats::LaunchAggregator folds the per-SM statistics into a
 * LaunchResult. Gpu::launch is the fresh-machine case: it builds the
 * machine at cycle 0 (or at a snapshot), runs it to the end and
 * discards it. Fault
 * campaigns keep the machine resident instead: restore() puts it at
 * a snapshot in place, advanceTo() and finish() run it on, capture()
 * snapshots it where it stands, and forkFrom() makes it equal to
 * another resident machine, copying what changed since the two last
 * forked (docs/FAULT_MODEL.md, "Snapshot fork"). A site run drives
 * the machine with runToEnd() and reads what it needs off sms(),
 * with no LaunchResult built. A Gpu instance is fully self-contained —
 * independent instances may run concurrently on different threads
 * (sim::RunPool relies on this).
 */

#ifndef WARPED_GPU_GPU_HH
#define WARPED_GPU_GPU_HH

#include <memory>

#include "arch/gpu_config.hh"
#include "dmr/dmr_config.hh"
#include "func/fault_hook.hh"
#include "gpu/launch_loop.hh"
#include "gpu/snapshot.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "protection/protection_scheme.hh"
#include "recovery/recovery_config.hh"
#include "sm/sm.hh"
#include "stats/launch_result.hh"

namespace warped {
namespace gpu {

/** Chip-wide, per-launch aggregated results (see src/stats). */
using LaunchResult = stats::LaunchResult;

class Gpu
{
  public:
    /**
     * @param cfg  machine description (validated)
     * @param dcfg Warped-DMR configuration
     * @param seed determinism seed for ReplayQ picks
     * @param hook fault boundary; nullptr = fault-free
     * @param rcfg rollback-replay recovery knobs; the default ({},
     *        disabled) leaves every recovery hook a null-pointer
     *        test and the launch results byte-identical to builds
     *        that predate the recovery engine. Enabling recovery
     *        requires DMR to be enabled (there is no detection
     *        signal to recover from otherwise).
     * @param scfg which protection backend guards each SM. The
     *        default (Warped-DMR) routes through the DmrEngine under
     *        @p dcfg, exactly as before the seam existed; recovery
     *        additionally requires a scheme whose detections arrive
     *        per instruction (schemeSupportsRecovery).
     */
    Gpu(arch::GpuConfig cfg, dmr::DmrConfig dcfg,
        std::uint64_t seed = 1, func::FaultHook *hook = nullptr,
        recovery::RecoveryConfig rcfg = {},
        protection::SchemeConfig scfg = {});
    ~Gpu();

    mem::Memory &mem() { return mem_; }
    const mem::Memory &mem() const { return mem_; }
    mem::LinearAllocator &allocator() { return alloc_; }
    const arch::GpuConfig &config() const { return cfg_; }

    /**
     * Run @p prog over @p grid_blocks blocks of @p block_threads
     * threads to completion (including DMR drain) and aggregate the
     * statistics.
     *
     * @param cycle_cap 0 = the default hard cap (exceeding it is
     *        fatal: a simulator bug); > 0 = a watchdog budget —
     *        exceeding it ends the launch with `hung` set, which
     *        fault-injection campaigns use to classify kernels whose
     *        control flow a fault destroyed.
     * @param stop  early-stop test checked once per cycle (see
     *        StopPredicate); empty = run to completion. A stopped
     *        launch reports the cycles it simulated and the statistics
     *        gathered so far.
     * @param resume start from this snapshot of the same launch
     *        (same program, geometry, configuration and, after
     *        setup, the same memory image) instead of cycle 0;
     *        nullptr = from the start. The result is the one the
     *        uninterrupted launch would report.
     * @param sink  given a snapshot at the top of each cycle its
     *        nextWanted() names; nullptr = none (one compare per
     *        cycle).
     */
    LaunchResult launch(const isa::Program &prog, unsigned grid_blocks,
                        unsigned block_threads, Cycle cycle_cap = 0,
                        const StopPredicate &stop = {},
                        const Snapshot *resume = nullptr,
                        SnapshotSink *sink = nullptr);

    /** Route the values of every later cycle through @p hook
     *  (nullptr = fault-free), on the bound machine too. */
    void setHook(func::FaultHook *hook);

    /**
     * Put the machine at @p at, a snapshot of the launch of @p prog
     * over @p grid_blocks x @p block_threads: global memory, the
     * memory system, every SM and the loop position. The first call
     * for a launch builds its machine; later ones restore it in
     * place, whatever it ran since (an aborted run included). The
     * program must outlive the machine.
     */
    void restore(const isa::Program &prog, unsigned grid_blocks,
                 unsigned block_threads, const Snapshot &at);

    /** The cycle at whose top the bound machine stands. */
    Cycle cycle() const;

    /** Simulate the bound machine on to the top of cycle @p until, or
     *  to the launch's end if that comes first. */
    void advanceTo(Cycle until);

    /** A snapshot of the bound machine where it stands. Register
     *  planes written since the previous capture into @p planes go
     *  there (see sm::Sm::saveState); unchanged ones, and an
     *  unchanged global-memory image, are shared. */
    Snapshot capture(const std::shared_ptr<sm::PlaneStore> &planes);

    /** Run the bound machine on from where it stands to the launch's
     *  end (see launch() for @p cycle_cap and @p stop) and aggregate
     *  the statistics of the whole launch. */
    LaunchResult finish(Cycle cycle_cap = 0,
                        const StopPredicate &stop = {});

    /** finish() without the aggregation: the run's statistics stay in
     *  the SMs (sms()), and no trace events are recorded. */
    LaunchLoop::Outcome runToEnd(Cycle cycle_cap = 0,
                                 const StopPredicate &stop = {});

    /** The bound machine's SMs. */
    const std::vector<std::unique_ptr<sm::Sm>> &sms() const;

    /**
     * The machine fork: make the bound machine equal to @p golden's,
     * a machine of the same configuration that stands somewhere in
     * the same launch, binding the launch first when needed. Global
     * memory, the memory system, every SM (sm::Sm::copyFrom) and the
     * loop position are copied into this machine's own buffers, but
     * register planes, shared segments and global memory only where
     * either machine wrote since the pair's previous fork; that is
     * why @p golden is not const (its write bits are consumed). The
     * hook and an attached fault plane are left as they are.
     * @return register planes copied.
     */
    std::uint64_t forkFrom(Gpu &golden);

  private:
    struct Machine;

    /** Build a fresh machine for the launch at cycle 0. */
    void bind(const isa::Program &prog, unsigned grid_blocks,
              unsigned block_threads);
    /** Overwrite the bound machine with @p at. */
    void restoreMachine(const Snapshot &at);
    /** Drive the bound machine from where it stands until it ends,
     *  @p stop fires or the watchdog trips: the one simulation path.
     *  Snapshots go to @p sink and events to @p recorder when set. */
    LaunchLoop::Outcome drive(Cycle cycle_cap, const StopPredicate *stop,
                              SnapshotSink *sink,
                              trace::Recorder *recorder);
    /** drive() to the end, then aggregate the launch's statistics. */
    LaunchResult run(Cycle cycle_cap, const StopPredicate &stop,
                     SnapshotSink *sink);

    arch::GpuConfig cfg_;
    dmr::DmrConfig dcfg_;
    recovery::RecoveryConfig rcfg_;
    protection::SchemeConfig scfg_;
    std::uint64_t seed_;
    func::FaultHook *hook_;
    mem::Memory mem_;
    mem::LinearAllocator alloc_;
    std::unique_ptr<Machine> machine_;
    /** The machine this one last forked from or into (forkFrom); the
     *  pair's global memories are in sync only while each names the
     *  other and neither write epoch moved from forkedEpochs_. */
    const Gpu *forkPeer_ = nullptr;
    struct ForkedEpochs
    {
        std::uint64_t golden = 0;
        std::uint64_t site = 0;
    } forkedEpochs_;
};

} // namespace gpu
} // namespace warped

#endif // WARPED_GPU_GPU_HH
