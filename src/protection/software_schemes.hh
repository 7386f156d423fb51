/**
 * @file
 * The software-only Fig-10 baselines, modeled as executing backends:
 *
 *  - OriginalScheme: the unprotected machine. No duplication, no
 *    comparisons, no detections.
 *  - RNaiveScheme: run the whole kernel twice and compare — modeled
 *    as a 1-cycle serialization per issue (the second run) with the
 *    redundant execution evaluated under the fault hook at the
 *    second run's (much later) cycle, so transient pulses from the
 *    first run have expired but stuck-at faults reproduce on the
 *    same lane and escape the comparator.
 *  - RThreadScheme: duplicate every thread into the warp's inactive
 *    lanes (§5.3's R-Thread). Redundant copies are free while spare
 *    lanes exist; overflow serializes, accumulated in warp-size
 *    quanta. Checkers run on the mirror lane in the same cycle, so
 *    both transient and lane-local stuck-at faults are caught.
 *
 * None of these own deferred state: verification happens at issue
 * (or is charged at issue, for R-Naive's deterministic second-run
 * model), so drain/squash/pre-retire are no-ops.
 */

#ifndef WARPED_PROTECTION_SOFTWARE_SCHEMES_HH
#define WARPED_PROTECTION_SOFTWARE_SCHEMES_HH

#include "arch/gpu_config.hh"
#include "func/executor.hh"
#include "protection/protection_scheme.hh"

namespace warped {
namespace protection {

/**
 * The comparator every software backend shares: recompute thread
 * @p slot of @p rec through the fault hook as physical lane
 * @p checker_lane at cycle @p fault_cycle, compare against the
 * recorded result, and count/log into @p stats (the log entry is
 * stamped @p log_cycle). Returns true on mismatch. Mirrors
 * DmrEngine's verifySlot minus trace emission and arbitration.
 */
bool verifySlotThroughHook(func::Executor &exec,
                           const dmr::ThreadCoreMapping &mapping,
                           dmr::DmrStats &stats,
                           const func::ExecRecord &rec, unsigned slot,
                           unsigned checker_lane, Cycle fault_cycle,
                           Cycle log_cycle);

/** The counters: all the state a stateless backend has. */
struct SoftwareState
{
    dmr::DmrStats stats;
    std::size_t
    bytes() const
    {
        return sizeof(*this) +
               stats.errorLog.size() * sizeof(dmr::ErrorEvent);
    }
};

/** Shared plumbing for the non-DmrEngine backends: linear mapping,
 *  own scratch record, a state of type @p StateT (a SoftwareState:
 *  the DmrStats block, plus what the backend adds), and a
 *  verify-one-slot helper mirroring the engine's comparator. */
template <class StateT = SoftwareState>
class SoftwareSchemeBase : public PlainStateScheme<StateT>
{
  public:
    SoftwareSchemeBase(const arch::GpuConfig &gpu, func::Executor &exec)
        : gpu_(gpu), exec_(exec),
          mapping_(dmr::MappingPolicy::Linear, gpu.warpSize,
                   gpu.lanesPerCluster)
    {
    }

    bool rawHazardStall(unsigned, const isa::Instruction &,
                        Cycle) override
    {
        return false;
    }
    func::ExecRecord &scratch() override { return scratch_; }
    void onIdleCycle(Cycle, bool) override {}
    std::uint64_t drainAll(Cycle) override { return 0; }
    void attachRecorder(trace::Recorder *) override {}
    void
    attachRecoveryListener(dmr::RecoveryListener *l) override
    {
        listener_ = l;
    }
    unsigned squashWarp(unsigned, std::uint64_t, Cycle) override
    {
        return 0;
    }
    bool preRetireVerify(unsigned, Cycle) override { return false; }
    bool hasPending() const override { return false; }
    unsigned replayQueueSize() const override { return 0; }
    void finalizeStats() override {}
    const dmr::DmrStats &stats() const override { return this->st_.stats; }
    const dmr::ThreadCoreMapping &mapping() const override
    {
        return mapping_;
    }

  protected:
    /**
     * Recompute thread @p slot of @p rec through the fault hook as
     * physical lane @p checker_lane at cycle @p fault_cycle, compare
     * against the recorded result, count, log (stamped with
     * @p log_cycle) and notify nothing — callers own the listener
     * call because its granularity is per-record, not per-slot.
     * Returns true on mismatch.
     */
    bool
    verifySlotAt(const func::ExecRecord &rec, unsigned slot,
                 unsigned checker_lane, Cycle fault_cycle, Cycle log_cycle)
    {
        return verifySlotThroughHook(exec_, mapping_, this->st_.stats, rec,
                                     slot, checker_lane, fault_cycle,
                                     log_cycle);
    }

    const arch::GpuConfig &gpu_;
    func::Executor &exec_;
    dmr::ThreadCoreMapping mapping_;
    dmr::RecoveryListener *listener_ = nullptr;
    func::ExecRecord scratch_;
};

/** The unprotected baseline: every hook is a no-op. */
class OriginalScheme final : public SoftwareSchemeBase<>
{
  public:
    using SoftwareSchemeBase::SoftwareSchemeBase;

    SchemeId id() const override { return SchemeId::Original; }
    bool supportsRecovery() const override { return false; }
    unsigned onIssue(const func::ExecRecord &, Cycle) override
    {
        return 0;
    }
};

/** Kernel-level re-execution: §5.3's R-Naive. */
class RNaiveScheme final : public SoftwareSchemeBase<>
{
  public:
    using SoftwareSchemeBase::SoftwareSchemeBase;

    SchemeId id() const override { return SchemeId::RNaive; }
    bool supportsRecovery() const override { return true; }
    unsigned onIssue(const func::ExecRecord &rec, Cycle now) override;

    /** Cycle offset of the modeled second run: far enough out that
     *  no transient window (which lives inside the first run's span)
     *  is still active, while stuck-at faults — whole-run windows —
     *  still corrupt the re-execution identically. */
    static constexpr Cycle kSecondRunOffset = Cycle{1} << 40;
};

/** RThreadScheme's state: the counters plus the duplicated threads
 *  that found no spare lane, pending serialization; drained in
 *  warp-size quanta as whole extra issue cycles. */
struct RThreadState : SoftwareState
{
    std::uint64_t stallAcc = 0;
    std::size_t
    bytes() const
    {
        return SoftwareState::bytes() + sizeof(stallAcc);
    }
};

/** Spare-lane thread duplication: §5.3's R-Thread. */
class RThreadScheme final : public SoftwareSchemeBase<RThreadState>
{
  public:
    using SoftwareSchemeBase::SoftwareSchemeBase;

    SchemeId id() const override { return SchemeId::RThread; }
    bool supportsRecovery() const override { return true; }
    unsigned onIssue(const func::ExecRecord &rec, Cycle now) override;
};

} // namespace protection
} // namespace warped

#endif // WARPED_PROTECTION_SOFTWARE_SCHEMES_HH
