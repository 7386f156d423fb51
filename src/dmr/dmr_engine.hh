/**
 * @file
 * The per-SM Warped-DMR engine: decides, for every issued warp
 * instruction, whether it is verified spatially (intra-warp DMR via
 * the RFU) or temporally (inter-warp DMR via co-execution / ReplayQ,
 * Algorithm 1), performs the redundant executions through the fault
 * hook, and runs the comparator.
 */

#ifndef WARPED_DMR_DMR_ENGINE_HH
#define WARPED_DMR_DMR_ENGINE_HH

#include "arch/gpu_config.hh"
#include "common/rng.hh"
#include "dmr/dmr_config.hh"
#include "dmr/dmr_stats.hh"
#include "dmr/replay_queue.hh"
#include "dmr/thread_mapping.hh"
#include "func/executor.hh"
#include "protection/protection_scheme.hh"

namespace warped {
namespace dmr {

class RecoveryListener;

/**
 * The reference `protection::ProtectionScheme`: both the paper's
 * Warped-DMR and the DMTR baseline (which is the same engine under
 * `DmrConfig::dmtr()` knobs). Remains directly constructible — the
 * unit tests and ablations drive it without the seam.
 */
class DmrEngine final : public protection::ProtectionScheme
{
  public:
    /**
     * @param gpu   machine geometry (cluster width, warp size)
     * @param cfg   Warped-DMR knobs
     * @param exec  the SM's executor (fault hook + SM id)
     * @param seed  RNG seed for the ReplayQ random pick
     */
    DmrEngine(const arch::GpuConfig &gpu, const DmrConfig &cfg,
              func::Executor &exec, std::uint64_t seed);

    /** DMTR is this engine under DmrConfig::dmtr() knobs. */
    protection::SchemeId
    id() const override
    {
        return (cfg_.temporalAll && !cfg_.intraWarp)
                   ? protection::SchemeId::Dmtr
                   : protection::SchemeId::WarpedDmr;
    }
    bool supportsRecovery() const override { return true; }

    /**
     * Pre-issue check: true when @p next of warp @p warp_id reads a
     * register produced by an unverified ReplayQ entry. The engine
     * consumes the stall cycle to verify one blocking producer
     * (paper: "executes the verification of the source instruction
     * before allowing the consumer instruction to execute").
     */
    bool rawHazardStall(unsigned warp_id, const isa::Instruction &next,
                        Cycle now) override;

    /**
     * Account and protect an issued instruction. Must be called for
     * every issue, in order. @return extra pipeline stall cycles
     * (1 when the ReplayQ was full with no co-execution partner).
     *
     * When @p rec is the engine's own scratch() record the engine
     * adopts it by buffer swap instead of copying the ~2.6 KB
     * payload; any other record (unit-test fixtures) is copied.
     */
    unsigned onIssue(const func::ExecRecord &rec, Cycle now) override;

    /**
     * Scratch record for the SM to execute the next instruction into
     * (Executor::stepInto). Handing the engine its own scratch lets
     * onIssue keep the record as the pending RF-stage instruction
     * with a buffer swap — no per-issue copy. Contents are only
     * meaningful between stepInto and the matching onIssue.
     */
    func::ExecRecord &scratch() override { return scratchIsA_ ? bufA_ : bufB_; }

    /** No instruction issued this cycle: drain one verification. */
    void onIdleCycle(Cycle now);
    /** Seam form: the engine drains whether the SM is mid-kernel or
     *  post-retirement, so the busy flag is irrelevant here. */
    void onIdleCycle(Cycle now, bool) override { onIdleCycle(now); }

    /**
     * End of kernel: verify the pending instruction and every queued
     * entry, one per cycle. @return cycles consumed.
     */
    std::uint64_t drainAll(Cycle now) override;

    /**
     * Emit structured trace events (Algorithm-1 decisions, RFU
     * forwarding, ReplayQ traffic, detections) to @p rec. nullptr
     * detaches; disabled tracing costs one pointer test per seam.
     */
    void attachRecorder(trace::Recorder *rec) override;

    /**
     * Subscribe the recovery engine to verification outcomes: every
     * retired record reports verified-clean / mismatch / unprotected.
     * nullptr detaches; disabled cost is one pointer test per retire.
     */
    void attachRecoveryListener(RecoveryListener *l) override
    {
        listener_ = l;
    }

    /**
     * Rollback squash: drop the pending RF-stage record and every
     * ReplayQ entry of @p warp_id with traceId >= @p min_trace_id —
     * those issues are being architecturally undone and must not be
     * verified (their recorded state is about to be replayed).
     * @return records dropped.
     */
    unsigned squashWarp(unsigned warp_id, std::uint64_t min_trace_id,
                        Cycle now) override;

    /**
     * Pre-retire drain: verify ONE outstanding record of @p warp_id
     * (the pending RF-stage record or its oldest ReplayQ entry),
     * consuming the caller's stall cycle. Used by the recovery gating
     * so a warp never EXITs or passes a barrier with unverified
     * instructions. @return true when a record was verified.
     */
    bool preRetireVerify(unsigned warp_id, Cycle now) override;

    /**
     * Stamp end-of-launch derived statistics (the ReplayQ depth
     * watermark) into stats(). Called once per launch by Gpu::launch
     * so the per-issue path stays free of watermark folding.
     */
    void finalizeStats() override
    {
        vars_.stats.replayQPeak = queue_.peakDepth();
    }

    const DmrStats &stats() const override { return vars_.stats; }
    const ThreadCoreMapping &mapping() const override { return mapping_; }
    const DmrConfig &config() const { return cfg_; }
    unsigned replayQueueSize() const override { return queue_.size(); }
    bool hasPending() const override { return vars_.hasPending; }

    /** The engine's plain state beside the ReplayQ and the pending
     *  record: the ReplayQ pick RNG, the counters and whether the RF
     *  stage holds a pending record. */
    struct Vars
    {
        Rng rng;
        DmrStats stats;
        bool hasPending = false;
    };

    /** Mutable state at a cycle boundary: the ReplayQ, the pending
     *  RF-stage record (when there is one) and the plain state. */
    struct State
    {
        ReplayQueue::State queue;
        /** Empty, or the one pending record. */
        func::PackedRecords pending;
        Vars vars;
        std::size_t bytes() const;
    };
    State saveStateValue() const;
    void restoreState(const State &s);
    std::unique_ptr<protection::SchemeState> saveState() const override;
    void copyFrom(const protection::ProtectionScheme &o) override;

  private:
    /** Intra-warp DMR: RFU pairing + comparison; updates coverage. */
    void intraWarpVerify(const func::ExecRecord &rec, Cycle now);

    /** Inter-warp DMR: re-execute all lanes (shuffled) and compare. */
    void interWarpVerify(const func::ExecRecord &rec, Cycle now);

    /** Re-run one thread slot on @p checker_lane and compare.
     *  @return true when the comparator flagged a mismatch. */
    bool verifySlot(const func::ExecRecord &rec, unsigned slot,
                    unsigned checker_lane, bool intra, Cycle now);

    /** Algorithm 1, applied to the pending instruction when the next
     *  instruction issues. @return stall cycles (0 or 1). */
    unsigned replayCheck(isa::UnitType next_type, Cycle now);

    static std::uint64_t readMaskOf(const isa::Instruction &in);

    /** Emit one engine-level event (no-op when detached): one
     *  inline pointer test on the hot verify / issue paths of a
     *  recorder-less run. */
    void
    emit(trace::EventKind kind, const func::ExecRecord &rec, Cycle now,
         std::uint64_t a1)
    {
        if (recorder_) [[unlikely]]
            recordEvent(kind, rec, now, a1);
    }

    /** Cold path of emit(): build and record the event. Out of line
     *  so the event construction never bloats its callers. */
    [[gnu::noinline]]
    void recordEvent(trace::EventKind kind, const func::ExecRecord &rec,
                     Cycle now, std::uint64_t a1);

    const arch::GpuConfig &gpu_;
    DmrConfig cfg_;
    func::Executor &exec_;
    /** Scratch plane for the dormant-hook re-execute-and-compare
     *  path (Executor::hookLiveAt is false at the verify cycle). */
    std::array<RegValue, func::kMaxWarp> verifyPlane_{};
    /** What the RFU pairing of one cluster occupancy adds to a
     *  counted intra-warp verification. */
    struct ClusterCounts
    {
        std::uint8_t checkers = 0; ///< idle lanes re-executing a lane
        std::uint8_t covered = 0;  ///< active lanes with a checker
    };
    /** Indexed by the cluster's active-lane bits; empty when the
     *  cluster width is one the RFU rejects. */
    std::vector<ClusterCounts> clusterCounts_;
    ThreadCoreMapping mapping_;
    ReplayQueue queue_;
    Vars vars_;
    trace::Recorder *recorder_ = nullptr;
    RecoveryListener *listener_ = nullptr;

    /** Double buffer: one record is the SM-facing scratch()
     *  (next instruction executes into it), the other holds the
     *  fully-utilized instruction currently in the RF stage awaiting
     *  the Replay Checker's decision (valid when vars_.hasPending).
     *  Adoption swaps the roles — tracked by a flag, not pointers,
     *  so the engine stays trivially movable. */
    func::ExecRecord bufA_, bufB_;
    bool scratchIsA_ = true;

    func::ExecRecord &pendingRec() { return scratchIsA_ ? bufB_ : bufA_; }
    const func::ExecRecord &
    pendingRec() const
    {
        return scratchIsA_ ? bufB_ : bufA_;
    }

    /** Unit type used by a verification this cycle (-1 = none):
     *  the opportunistic drain must not double-book an issue slot. */
    int verifiedUnitThisCycle_ = -1;
};

} // namespace dmr
} // namespace warped

#endif // WARPED_DMR_DMR_ENGINE_HH
