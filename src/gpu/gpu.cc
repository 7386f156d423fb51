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

/** The bound launch's machine (see the file comment of gpu.hh). */
struct Gpu::Machine
{
    Machine(Gpu &g, const isa::Program &p, unsigned grid, unsigned block)
        : prog(p), gridBlocks(grid), blockThreads(block), memSys(g.cfg_)
    {
        mem::MemorySystem *ms =
            g.cfg_.usesMemorySystem() ? &memSys : nullptr;
        // Sm holds references (config, program, memory) and is
        // therefore immovable; heap-allocate the array.
        sms.reserve(g.cfg_.numSms);
        for (unsigned s = 0; s < g.cfg_.numSms; ++s)
            sms.push_back(std::make_unique<sm::Sm>(
                g.cfg_, g.dcfg_, s, prog, g.mem_, *g.hook_, g.seed_, ms,
                g.rcfg_, g.scfg_));
        // Fig 8b tracks one thread on one SM ("warp 1 thread ...").
        sms[0]->stats().trackRawDistance = true;
        sms[0]->stats().trackedWarpSlot =
            g.cfg_.warpsPerBlock(block) > 1 ? 1 : 0;
    }

    const isa::Program &prog;
    unsigned gridBlocks;
    unsigned blockThreads;
    /** One chip-level memory system when contention or banked DRAM
     *  timing is modeled (unused otherwise). */
    mem::MemorySystem memSys;
    std::vector<std::unique_ptr<sm::Sm>> sms;
    /** The machine stands at the top of at.cycle. */
    LaunchLoop::Counters at;
    /** The global-memory image last captured, at dramEpoch: global
     *  memory mostly changes at a kernel's edges, so successive
     *  captures share it while nothing wrote it. */
    std::shared_ptr<const mem::Memory::Span> dram;
    std::uint64_t dramEpoch = 0;
    /** Kept equal to the cycle being simulated (see start). */
    Cycle *clock = nullptr;
};

Gpu::~Gpu() = default;

void
Gpu::start(const isa::Program &prog, unsigned grid_blocks,
           unsigned block_threads, Cycle *clock)
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
    machine_.reset();
    machine_ = std::make_unique<Machine>(*this, prog, grid_blocks,
                                         block_threads);
    machine_->clock = clock;
}

void
Gpu::setHook(func::FaultHook *hook)
{
    hook_ = hook ? hook : &func::NullFaultHook::instance();
    if (machine_)
        for (auto &sp : machine_->sms)
            sp->setHook(*hook_);
}

void
Gpu::restore(const isa::Program &prog, unsigned grid_blocks,
             unsigned block_threads, const Snapshot &at)
{
    if (!machine_ || &machine_->prog != &prog ||
        machine_->gridBlocks != grid_blocks ||
        machine_->blockThreads != block_threads)
        start(prog, grid_blocks, block_threads);
    Machine &m = *machine_;
    if (at.sms.size() != m.sms.size() || at.gridBlocks != m.gridBlocks ||
        at.blockThreads != m.blockThreads ||
        at.memSys.has_value() != cfg_.usesMemorySystem())
        warped_panic("launch of '", m.prog.name(), "' resumed from a "
                     "snapshot of a different launch");
    mem_.restoreSpan(*at.dram);
    // Global memory now holds exactly this image: the next capture
    // shares it until something writes.
    m.dram = at.dram;
    m.dramEpoch = mem_.writeEpoch();
    if (at.memSys)
        m.memSys.restoreState(*at.memSys);
    for (std::size_t s = 0; s < m.sms.size(); ++s)
        m.sms[s]->restoreState(*at.sms[s], *at.planes);
    m.at = at.loop;
}

Cycle
Gpu::cycle() const
{
    if (!machine_)
        warped_panic("Gpu::cycle with no launch bound");
    return machine_->at.cycle;
}

Snapshot
Gpu::capture(const std::shared_ptr<sm::PlaneStore> &planes)
{
    if (!machine_)
        warped_panic("Gpu::capture with no launch bound");
    Machine &m = *machine_;
    Snapshot snap;
    snap.loop = m.at;
    snap.gridBlocks = m.gridBlocks;
    snap.blockThreads = m.blockThreads;
    snap.planes = planes;
    snap.sms.reserve(m.sms.size());
    for (const auto &sp : m.sms)
        snap.sms.push_back(sp->saveState(*planes, m.at.cycle));
    if (cfg_.usesMemorySystem())
        snap.memSys = m.memSys.state();
    if (!m.dram || mem_.writeEpoch() != m.dramEpoch) {
        m.dram = std::make_shared<const mem::Memory::Span>(mem_.saveSpan());
        m.dramEpoch = mem_.writeEpoch();
    }
    snap.dram = m.dram;
    return snap;
}

LaunchLoop::Outcome
Gpu::drive(Cycle cycle_cap, const StopPredicate *stop,
           trace::Recorder *recorder)
{
    Machine &m = *machine_;
    LaunchLoop loop(m.sms, m.prog.name(), m.gridBlocks, m.blockThreads,
                    cycle_cap);
    loop.resumeAt(m.at);
    loop.setCycleClock(m.clock);
    // The SMs outlive the recorder: detach it however the run ends.
    struct Detach
    {
        LaunchLoop &loop;
        bool attached;
        ~Detach()
        {
            if (attached)
                loop.attachRecorder(nullptr);
        }
    } detach{loop, recorder != nullptr};
    if (recorder)
        loop.attachRecorder(recorder);
    if (mem_.faultPlane()) [[unlikely]]
        loop.attachFaultPlane(mem_.faultPlane());
    if (stop && *stop)
        loop.setStopPredicate(stop);
    const auto outcome = loop.run();
    m.at = {outcome.cycles, static_cast<unsigned>(outcome.dispatchedBlocks),
            outcome.smTicks};
    return outcome;
}

LaunchResult
Gpu::run(Cycle cycle_cap, const StopPredicate &stop)
{
    // The run's private event recorder: per-SM ring buffers, so
    // recording never crosses SM (or RunPool worker) boundaries.
    std::optional<trace::Recorder> recorder;
    if (cfg_.traceEvents)
        recorder.emplace(cfg_.numSms, cfg_.traceRingCapacity);
    const auto outcome =
        drive(cycle_cap, &stop, recorder ? &*recorder : nullptr);

    stats::LaunchAggregator agg(cfg_.warpSize);
    for (auto &sp : machine_->sms) {
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

LaunchResult
Gpu::launch(const isa::Program &prog, unsigned grid_blocks,
            unsigned block_threads, Cycle cycle_cap,
            const StopPredicate &stop)
{
    start(prog, grid_blocks, block_threads);
    auto result = run(cycle_cap, stop);
    // A fresh machine's program need not outlive the launch.
    machine_.reset();
    return result;
}

void
Gpu::advanceTo(Cycle until)
{
    if (!machine_)
        warped_panic("Gpu::advanceTo with no launch bound");
    if (machine_->at.cycle >= until)
        return;
    const StopPredicate stop = [until](Cycle c, const LaunchLoop &) {
        return c + 1 >= until;
    };
    drive(0, &stop, nullptr);
}

LaunchResult
Gpu::finish(Cycle cycle_cap, const StopPredicate &stop)
{
    if (!machine_)
        warped_panic("Gpu::finish with no launch bound");
    return run(cycle_cap, stop);
}

LaunchLoop::Outcome
Gpu::runToEnd(Cycle cycle_cap, const StopPredicate &stop)
{
    if (!machine_)
        warped_panic("Gpu::runToEnd with no launch bound");
    return drive(cycle_cap, &stop, nullptr);
}

const std::vector<std::unique_ptr<sm::Sm>> &
Gpu::sms() const
{
    if (!machine_)
        warped_panic("Gpu::sms with no launch bound");
    return machine_->sms;
}

std::uint64_t
Gpu::forkFrom(Gpu &golden)
{
    if (!golden.machine_)
        warped_panic("Gpu::forkFrom a machine with no launch bound");
    Machine &g = *golden.machine_;
    if (golden.cfg_.numSms != cfg_.numSms ||
        golden.cfg_.usesMemorySystem() != cfg_.usesMemorySystem())
        warped_panic("Gpu::forkFrom a machine of another configuration");
    if (!machine_ || &machine_->prog != &g.prog ||
        machine_->gridBlocks != g.gridBlocks ||
        machine_->blockThreads != g.blockThreads)
        start(g.prog, g.gridBlocks, g.blockThreads);
    Machine &m = *machine_;
    const bool paired = forkPeer_ == &golden && golden.forkPeer_ == this;
    forkPeer_ = &golden;
    golden.forkPeer_ = this;
    if (!paired || forkedEpochs_.golden != golden.mem_.writeEpoch() ||
        forkedEpochs_.site != mem_.writeEpoch()) {
        mem_.copyFrom(golden.mem_);
        forkedEpochs_ = {golden.mem_.writeEpoch(), mem_.writeEpoch()};
    }
    if (cfg_.usesMemorySystem())
        m.memSys.restoreState(g.memSys.state());
    std::uint64_t planes = 0;
    for (std::size_t s = 0; s < m.sms.size(); ++s)
        planes += m.sms[s]->copyFrom(*g.sms[s]);
    m.at = g.at;
    return planes;
}

} // namespace gpu
} // namespace warped
