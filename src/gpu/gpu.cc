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
            const StopPredicate &stop, const Snapshot *resume,
            SnapshotSink *sink)
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

    LaunchLoop loop(sms, prog.name(), grid_blocks, block_threads,
                    cycle_cap);
    if (resume) {
        if (resume->sms.size() != sms.size() ||
            resume->gridBlocks != grid_blocks ||
            resume->blockThreads != block_threads ||
            resume->memSys.has_value() != (mem_sys_ptr != nullptr))
            warped_panic("launch of '", prog.name(), "' resumed from a "
                         "snapshot of a different launch");
        mem_.restoreSpan(*resume->dram);
        if (mem_sys_ptr)
            mem_sys.restoreState(*resume->memSys);
        for (std::size_t s = 0; s < sms.size(); ++s)
            sms[s]->restoreState(*resume->sms[s], *resume->planes);
        loop.resumeAt(resume->loop);
    }
    LaunchLoop::CycleTap tap;
    std::shared_ptr<sm::PlaneStore> planes;
    std::shared_ptr<const mem::Memory::Span> dram;
    std::uint64_t dram_epoch = 0;
    if (sink) {
        planes = std::make_shared<sm::PlaneStore>(cfg_.warpSize);
        tap = [&](const LaunchLoop::Counters &c) {
            Snapshot snap;
            snap.loop = c;
            snap.gridBlocks = grid_blocks;
            snap.blockThreads = block_threads;
            snap.planes = planes;
            snap.sms.reserve(sms.size());
            for (const auto &sp : sms)
                snap.sms.push_back(sp->saveState(*planes, c.cycle));
            if (mem_sys_ptr)
                snap.memSys = mem_sys.state();
            // Global memory mostly changes at a kernel's edges: share
            // the previous snapshot's image while nothing wrote it.
            if (!dram || mem_.writeEpoch() != dram_epoch) {
                dram = std::make_shared<const mem::Memory::Span>(
                    mem_.saveSpan());
                dram_epoch = mem_.writeEpoch();
            }
            snap.dram = dram;
            sink->take(std::move(snap));
            return sink->nextWanted(c.cycle + 1);
        };
        loop.setCycleTap(&tap, sink->nextWanted(resume ? resume->loop.cycle
                                                       : 0));
    }

    // The launch's private event recorder: per-SM ring buffers, so
    // recording never crosses SM (or RunPool worker) boundaries.
    std::optional<trace::Recorder> recorder;
    if (cfg_.traceEvents)
        recorder.emplace(cfg_.numSms, cfg_.traceRingCapacity);

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
