#include "gpu/gpu.hh"

#include <optional>

#include "common/logging.hh"
#include "gpu/launch_loop.hh"
#include "protection/scheme_registry.hh"
#include "mem/memory_system.hh"
#include "stats/launch_aggregator.hh"
#include "trace/recorder.hh"

namespace warped {
namespace gpu {

Gpu::Gpu(arch::GpuConfig cfg, dmr::DmrConfig dcfg, std::uint64_t seed,
         func::FaultHook *hook, recovery::RecoveryConfig rcfg,
         protection::SchemeConfig scfg)
    : cfg_(cfg), dcfg_(dcfg), rcfg_(rcfg), scfg_(scfg), seed_(seed),
      hook_(hook ? hook : &func::NullFaultHook::instance()),
      mem_(cfg.globalMemBytes), alloc_(cfg.globalMemBytes)
{
    cfg_.validate();
    dcfg_.validate();
    rcfg_.validate();
    protection::validateSchemeConfig(scfg_);
    if (rcfg_.enabled && !protection::schemeSupportsRecovery(scfg_.id))
        warped_fatal("recovery requires per-instruction detection: "
                     "scheme '", protection::schemeCliName(scfg_.id),
                     "' reports errors (if at all) only after the "
                     "state a rollback needs is gone");
    if (rcfg_.enabled && protection::schemeUsesDmrEngine(scfg_.id) &&
        !dcfg_.enabled)
        warped_fatal("recovery requires DMR: rollback-replay is "
                     "triggered by comparator mismatches, which only "
                     "the DMR engine produces");
}

LaunchResult
Gpu::launch(const isa::Program &prog, unsigned grid_blocks,
            unsigned block_threads, Cycle cycle_cap,
            const StopPredicate &stop)
{
    if (grid_blocks == 0 || block_threads == 0)
        warped_fatal("launch of '", prog.name(), "' with empty grid");
    if (block_threads > cfg_.maxThreadsPerSm)
        warped_fatal("block of ", block_threads,
                     " threads exceeds SM capacity");
    if (prog.sharedBytes() > cfg_.sharedMemBytes)
        warped_fatal("kernel '", prog.name(), "' wants ",
                     prog.sharedBytes(), "B shared memory, SM has ",
                     cfg_.sharedMemBytes);

    // One chip-level memory system when contention or banked DRAM
    // timing is modeled.
    mem::MemorySystem mem_sys(cfg_);
    mem::MemorySystem *mem_sys_ptr =
        cfg_.usesMemorySystem() ? &mem_sys : nullptr;

    // Sm holds references (config, program, memory) and is therefore
    // immovable; heap-allocate the array.
    std::vector<std::unique_ptr<sm::Sm>> sms;
    sms.reserve(cfg_.numSms);
    for (unsigned s = 0; s < cfg_.numSms; ++s) {
        sms.push_back(std::make_unique<sm::Sm>(cfg_, dcfg_, s, prog,
                                               mem_, *hook_, seed_,
                                               mem_sys_ptr, rcfg_,
                                               scfg_));
    }

    // Fig 8b tracks one thread on one SM ("warp 1 thread ...").
    sms[0]->stats().trackRawDistance = true;
    sms[0]->stats().trackedWarpSlot =
        cfg_.warpsPerBlock(block_threads) > 1 ? 1 : 0;

    // The launch's private event recorder: per-SM ring buffers, so
    // recording never crosses SM (or RunPool worker) boundaries.
    std::optional<trace::Recorder> recorder;
    if (cfg_.traceEvents)
        recorder.emplace(cfg_.numSms, cfg_.traceRingCapacity);

    LaunchLoop loop(sms, prog.name(), grid_blocks, block_threads,
                    cycle_cap);
    if (recorder)
        loop.attachRecorder(&*recorder);
    if (mem_.faultPlane()) [[unlikely]]
        loop.attachFaultPlane(mem_.faultPlane());
    if (stop)
        loop.setStopPredicate(&stop);
    const auto outcome = loop.run();

    stats::LaunchAggregator agg(cfg_.warpSize);
    for (auto &sp : sms) {
        sp->scheme().finalizeStats();
        agg.addSm(sp->stats(), sp->scheme().stats(),
                  sp->recovery() ? &sp->recovery()->stats() : nullptr);
    }
    if (recorder)
        agg.addTrace(*recorder);
    return agg.finish(outcome.cycles,
                      double(outcome.cycles) * cfg_.cyclePeriodNs(),
                      outcome.hung);
}

} // namespace gpu
} // namespace warped
