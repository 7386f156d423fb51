/**
 * @file
 * The GPGPU chip: global memory, the block dispatcher, and the
 * kernel-launch entry point over all SMs.
 *
 * Gpu::launch composes two extracted pieces: gpu::LaunchLoop (block
 * dispatch + tick + watchdog) and stats::LaunchAggregator (folding
 * per-SM statistics into a LaunchResult). A Gpu instance is fully
 * self-contained — independent instances may run concurrently on
 * different threads (sim::RunPool relies on this).
 */

#ifndef WARPED_GPU_GPU_HH
#define WARPED_GPU_GPU_HH

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

    mem::Memory &mem() { return mem_; }
    const mem::Memory &mem() const { return mem_; }
    mem::LinearAllocator &allocator() { return alloc_; }
    const arch::GpuConfig &config() const { return cfg_; }
    const dmr::DmrConfig &dmrConfig() const { return dcfg_; }
    const recovery::RecoveryConfig &recoveryConfig() const
    {
        return rcfg_;
    }
    const protection::SchemeConfig &schemeConfig() const
    {
        return scfg_;
    }

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

  private:
    arch::GpuConfig cfg_;
    dmr::DmrConfig dcfg_;
    recovery::RecoveryConfig rcfg_;
    protection::SchemeConfig scfg_;
    std::uint64_t seed_;
    func::FaultHook *hook_;
    mem::Memory mem_;
    mem::LinearAllocator alloc_;
};

} // namespace gpu
} // namespace warped

#endif // WARPED_GPU_GPU_HH
