/**
 * @file
 * Warp-granular rollback-replay recovery engine (one per SM).
 *
 * Detection alone leaves every comparator mismatch a dead end: the
 * corrupted value has already committed (execute-at-schedule), so the
 * campaign still ends in an SDC/DUE. This module closes the loop:
 *
 *  - at every issue it captures a checkpoint Delta (pre-exec SIMT
 *    stack, exit/barrier flags, overwritten destination registers,
 *    memory undo words) into a bounded per-SM CheckpointRing;
 *  - the DMR engine reports each retired record through the
 *    dmr::RecoveryListener seam; clean verifications release deltas,
 *    a mismatch files a rollback request anchored at the mismatching
 *    issue's traceId;
 *  - the SM processes one rollback per cycle: younger deltas are
 *    undone in reverse order, the anchor's pre-state is restored, the
 *    warp's in-flight DMR records are squashed, and the warp replays
 *    from the anchor PC after a configurable penalty;
 *  - a retry budget bounds replay livelock (permanent faults hit the
 *    same mismatch forever): exceeding it degrades gracefully to a
 *    structured give-up — the warp keeps its committed state and the
 *    run remains a detection, exactly the pre-recovery behavior.
 *
 * The SM additionally gates BAR/EXIT on a fully-verified chain
 * (Sm::tryIssue), so a warp never retires or crosses a barrier with
 * unverified instructions — which is what makes a workload's final
 * stores recoverable and keeps rollbacks from ever crossing a
 * barrier (no cross-warp barrier bookkeeping to undo).
 */

#ifndef WARPED_RECOVERY_RECOVERY_MANAGER_HH
#define WARPED_RECOVERY_RECOVERY_MANAGER_HH

#include <cstdint>
#include <vector>

#include "arch/warp_context.hh"
#include "common/types.hh"
#include "protection/protection_scheme.hh"
#include "dmr/recovery_listener.hh"
#include "recovery/checkpoint_ring.hh"
#include "recovery/recovery_config.hh"
#include "recovery/recovery_stats.hh"
#include "trace/recorder.hh"

namespace warped {
namespace recovery {

class RecoveryManager : public dmr::RecoveryListener
{
  public:
    RecoveryManager(const RecoveryConfig &cfg, unsigned sm_id,
                    unsigned num_warps);

    void attachRecorder(trace::Recorder *rec) { recorder_ = rec; }

    // ---- issue side (Sm::tryIssue) -------------------------------
    /**
     * Capture the pre-execution delta for @p warp's next instruction.
     * @return the sink Executor::stepInto fills with memory undo
     *         entries; valid until commitDelta.
     */
    std::vector<func::MemUndo> *beginDelta(unsigned warp,
                                           const arch::WarpContext &ctx,
                                           const isa::Instruction &in,
                                           Cycle now);

    /**
     * Finish the delta begun by beginDelta: stamp the launch-unique
     * traceId and auto-release it when the record can never be
     * verified (branches, barriers, EXIT, NOP).
     */
    void commitDelta(unsigned warp, const func::ExecRecord &rec);

    /** A new warp was installed into slot @p warp (block dispatch):
     *  reset its give-up flag, retry budget and block window. */
    void resetWarp(unsigned warp);

    /** Warp blocked in its post-rollback penalty window? */
    bool
    blocked(unsigned warp, Cycle now) const
    {
        return blockedUntil_[warp] > now;
    }

    /** Any not-yet-verified delta (or pending rollback) outstanding? */
    bool hasUnverified(unsigned warp) const;

    bool gaveUp(unsigned warp) const { return gaveUp_[warp] != 0; }

    /** Count a BAR/EXIT gating stall (kept here so DmrStats stays
     *  frozen and disabled metrics stay byte-identical). */
    void countRetireStall() { ++stats_.retireStalls; }

    // ---- dmr::RecoveryListener -----------------------------------
    void onVerified(const func::ExecRecord &rec, bool mismatch,
                    Cycle now) override;
    void onUnprotected(const func::ExecRecord &rec) override;

    // ---- tick side (Sm::tick) ------------------------------------
    bool hasPendingRollback() const { return pendingCount_ > 0; }

    /** Lowest warp id with a pending rollback request (-1 if none). */
    int nextPendingWarp() const;

    struct Outcome
    {
        bool rolledBack = false;
        bool gaveUp = false;
        Pc resumePc = 0;
        std::uint64_t anchor = 0;
        unsigned undone = 0;
    };

    /**
     * Execute the pending rollback for @p warp: undo every delta
     * younger than the anchor (reverse order), restore the anchor's
     * pre-state into @p ctx, squash the warp's in-flight DMR records
     * in @p engine, and trim the chain. Degrades to a give-up when
     * the anchor was evicted or the retry budget is exhausted.
     */
    Outcome rollback(unsigned warp, arch::WarpContext &ctx,
                     protection::ProtectionScheme &engine, Cycle now);

    /** Quiescent: no rollback requests outstanding (drain check). */
    bool idle() const { return pendingCount_ == 0; }

    const RecoveryStats &stats() const { return stats_; }
    const RecoveryConfig &config() const { return cfg_; }
    const CheckpointRing &ring() const { return ring_; }
    /** Snapshot restore: a copied manager's undo entries still point
     *  at the saving machine's memories; re-point them in
     *  CheckpointRing::forEachUndo order. */
    CheckpointRing &ring() { return ring_; }

  private:
    /** Mark the delta with @p trace_id cleared and pop the chain's
     *  cleared prefix; a fully-drained chain resets the budget. */
    void release(unsigned warp, std::uint64_t trace_id, bool unprotected);

    Outcome doGiveUp(unsigned warp, std::uint64_t anchor, Cycle now);

    [[gnu::noinline]]
    void emit(trace::EventKind kind, unsigned warp, Pc pc,
              std::uint64_t a0, std::uint64_t a1, Cycle now);

    RecoveryConfig cfg_;
    unsigned smId_;
    unsigned numWarps_;
    CheckpointRing ring_;
    RecoveryStats stats_;
    trace::Recorder *recorder_ = nullptr;

    /** Per-warp rollback request: anchor traceId, 0 = none. */
    std::vector<std::uint64_t> pendingAnchor_;
    std::vector<Cycle> blockedUntil_;
    std::vector<unsigned> attempts_;
    std::vector<std::uint8_t> gaveUp_;
    unsigned pendingCount_ = 0;
};

} // namespace recovery
} // namespace warped

#endif // WARPED_RECOVERY_RECOVERY_MANAGER_HH
