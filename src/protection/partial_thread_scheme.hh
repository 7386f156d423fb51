/**
 * @file
 * Partial-thread protection (Yang et al., arXiv 2103.02825): only a
 * configurable "vulnerable" subset of each warp's thread slots is
 * duplicated, trading coverage for overhead along a knob instead of
 * all-or-nothing.
 *
 * Implementation: wraps a full `dmr::DmrEngine`. Warps whose active
 * mask lies entirely inside the protected slot prefix delegate to
 * the engine unchanged — with `protectFraction == 1.0` *every* warp
 * delegates and the scheme is Warped-DMR, detection set included.
 * Warps that extend past the protected prefix take the partial path:
 * the protected slots are duplicated into spare lanes immediately
 * (serializing in warp-size quanta when spares run out, like
 * R-Thread), and the vulnerable remainder runs bare.
 */

#ifndef WARPED_PROTECTION_PARTIAL_THREAD_SCHEME_HH
#define WARPED_PROTECTION_PARTIAL_THREAD_SCHEME_HH

#include "arch/gpu_config.hh"
#include "common/lane_mask.hh"
#include "dmr/dmr_engine.hh"
#include "protection/protection_scheme.hh"

namespace warped {
namespace protection {

class PartialThreadScheme final : public ProtectionScheme
{
  public:
    PartialThreadScheme(const arch::GpuConfig &gpu,
                        const dmr::DmrConfig &dcfg,
                        func::Executor &exec, std::uint64_t seed,
                        double protect_fraction);

    SchemeId id() const override { return SchemeId::PartialThread; }
    bool supportsRecovery() const override { return true; }

    bool
    rawHazardStall(unsigned warp_id, const isa::Instruction &in,
                   Cycle now) override
    {
        return engine_.rawHazardStall(warp_id, in, now);
    }
    func::ExecRecord &scratch() override { return engine_.scratch(); }
    unsigned onIssue(const func::ExecRecord &rec, Cycle now) override;
    void
    onIdleCycle(Cycle now, bool sm_busy) override
    {
        engine_.onIdleCycle(now, sm_busy);
    }
    std::uint64_t
    drainAll(Cycle now) override
    {
        return engine_.drainAll(now);
    }
    void
    attachRecorder(trace::Recorder *rec) override
    {
        engine_.attachRecorder(rec);
    }
    void attachRecoveryListener(dmr::RecoveryListener *l) override;
    unsigned
    squashWarp(unsigned warp_id, std::uint64_t min_trace_id,
               Cycle now) override
    {
        return engine_.squashWarp(warp_id, min_trace_id, now);
    }
    bool
    preRetireVerify(unsigned warp_id, Cycle now) override
    {
        return engine_.preRetireVerify(warp_id, now);
    }
    bool hasPending() const override { return engine_.hasPending(); }
    unsigned
    replayQueueSize() const override
    {
        return engine_.replayQueueSize();
    }
    void finalizeStats() override { engine_.finalizeStats(); }
    const dmr::DmrStats &stats() const override;
    const dmr::ThreadCoreMapping &mapping() const override
    {
        return engine_.mapping();
    }

    unsigned protectedSlots() const { return protectedSlots_; }

    /** What the non-delegated path adds: the protected duplicates
     *  that found no spare lane, pending serialization, and its
     *  counters. */
    struct PartialPath
    {
        std::uint64_t stallAcc = 0;
        dmr::DmrStats stats;
    };

    /** The wrapped engine's state plus the partial path's own. */
    struct State
    {
        dmr::DmrEngine::State engine;
        PartialPath partial;
        std::size_t
        bytes() const
        {
            return engine.bytes() + sizeof(*this) +
                   partial.stats.errorLog.size() * sizeof(dmr::ErrorEvent);
        }
    };
    void restoreState(const State &s);
    std::unique_ptr<SchemeState> saveState() const override;
    void copyFrom(const ProtectionScheme &o) override;

  private:
    const arch::GpuConfig &gpu_;
    func::Executor &exec_;
    dmr::DmrEngine engine_;
    unsigned protectedSlots_;
    LaneMask protectedMask_;
    PartialPath partial_;
    dmr::RecoveryListener *listener_ = nullptr;
    /** engine_ + partial_, rebuilt on demand by stats(). */
    mutable dmr::DmrStats combined_;
};

} // namespace protection
} // namespace warped

#endif // WARPED_PROTECTION_PARTIAL_THREAD_SCHEME_HH
