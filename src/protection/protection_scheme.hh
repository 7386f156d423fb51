/**
 * @file
 * The protection seam: the abstract interface between the SM pipeline
 * and whatever error-detection scheme is protecting it.
 *
 * Everything `Sm` used to hard-wire into `dmr::DmrEngine` flows
 * through this interface instead — the issue-time duplication
 * decision (`onIssue`), RAW-hazard back-pressure (`rawHazardStall`),
 * idle-slot verification (`onIdleCycle`), end-of-launch drain
 * (`drainAll`, `hasPending`, `replayQueueSize`), the commit gate
 * (`preRetireVerify`), rollback support (`squashWarp`), the detection
 * callback (`attachRecoveryListener`) and per-launch statistics
 * (`stats`). Warped-DMR is the reference implementation; the Fig-10
 * competitors (R-Naive, R-Thread, DMTR) plus the partial-thread
 * (arXiv 2103.02825) and replay-compare (RepTFD, arXiv 1206.2132)
 * schemes are alternative backends behind the same seam, so one
 * fault-injection campaign can measure any of them.
 *
 * Stats are reported in `dmr::DmrStats` terms for every scheme: the
 * counters were designed for Warped-DMR but generalize — "verified
 * thread-instr" means "a comparator checked this thread's result",
 * however the scheme arranged for the redundant execution.
 */

#ifndef WARPED_PROTECTION_PROTECTION_SCHEME_HH
#define WARPED_PROTECTION_PROTECTION_SCHEME_HH

#include <cstdint>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"
#include "dmr/dmr_stats.hh"
#include "dmr/thread_mapping.hh"

namespace warped {

namespace func {
struct ExecRecord;
}
namespace isa {
struct Instruction;
}
namespace trace {
class Recorder;
}
namespace dmr {
class RecoveryListener;
}

namespace protection {

/**
 * The §5.3 / Fig 10 scheme lineup plus the two post-paper backends.
 * Enumerator order is the Fig-10 column order; sweeps iterate it.
 */
enum class SchemeId : std::uint8_t
{
    Original = 0,  ///< unprotected baseline (no detection)
    RNaive,        ///< re-execute every kernel twice, compare (SW)
    RThread,       ///< duplicate threads into spare lanes (SW)
    Dmtr,          ///< SRT-style temporal DMR of every instruction
    WarpedDmr,     ///< the paper's scheme (reference implementation)
    PartialThread, ///< protect a vulnerable-thread subset (Yang et al.)
    ReplayCompare, ///< RepTFD-style whole-kernel replay + end compare
};

constexpr unsigned kNumSchemes = 7;

/** Which scheme an SM builds, plus scheme-specific knobs. */
struct SchemeConfig
{
    SchemeId id = SchemeId::WarpedDmr;
    /** PartialThreadScheme: fraction of each warp's thread slots
     *  (rounded up) that get duplicated; 1.0 = protect everything
     *  (== Warped-DMR), 0.0 = protect nothing (== Original). */
    double protectFraction = 1.0;
};

class ProtectionScheme;

/**
 * A copy of one scheme's mutable state, taken for a gpu::Snapshot
 * rung. Holds only what the next cycle can read: occupied queue
 * slots, pending records, RNG position and counters — never the
 * scheme's references or attached observers.
 */
class SchemeState
{
  public:
    virtual ~SchemeState() = default;
    /** Overwrite @p scheme's mutable state with this copy. @p scheme
     *  must be of the saving scheme's type and configuration. */
    virtual void restoreInto(ProtectionScheme &scheme) const = 0;
    /** Heap and inline bytes the copy holds (rung budgeting). */
    virtual std::size_t bytes() const = 0;
};

/**
 * One SM's protection backend. Constructed per SM (like the engine it
 * abstracts); all hooks are called from that SM's single-threaded
 * tick loop, in issue order.
 */
class ProtectionScheme
{
  public:
    virtual ~ProtectionScheme() = default;

    virtual SchemeId id() const = 0;

    /** Can `recovery::RecoveryManager` roll back from this scheme's
     *  detections? Requires per-instruction mismatch callbacks;
     *  false for Original (no detections) and ReplayCompare
     *  (detection happens after the state to roll back to is gone). */
    virtual bool supportsRecovery() const = 0;

    /** Issue-time back-pressure: true = stall this warp one cycle
     *  because an unverified producer would be consumed. */
    virtual bool rawHazardStall(unsigned warp_id,
                                const isa::Instruction &in,
                                Cycle now) = 0;

    /** Scratch record the SM executes into before calling onIssue
     *  (the double-buffer dance that lets schemes adopt records by
     *  swap instead of copy). */
    virtual func::ExecRecord &scratch() = 0;

    /**
     * One instruction issued (and functionally executed into the
     * record). Returns the number of extra pipeline cycles the scheme
     * charges the SM for this issue (duplication/serialization cost).
     */
    virtual unsigned onIssue(const func::ExecRecord &rec, Cycle now) = 0;

    /** A cycle in which this SM made no issue progress. @p sm_busy
     *  distinguishes mid-kernel stall cycles from the post-kernel
     *  drain (warps all retired), which deferred schemes use to start
     *  their end-of-kernel work. */
    virtual void onIdleCycle(Cycle now, bool sm_busy) = 0;

    /** Force all deferred verification to complete now; returns the
     *  number of drain cycles consumed. */
    virtual std::uint64_t drainAll(Cycle now) = 0;

    virtual void attachRecorder(trace::Recorder *rec) = 0;

    /** Detection callback consumer (recovery). Callers must check
     *  supportsRecovery() before relying on rollback semantics. */
    virtual void attachRecoveryListener(dmr::RecoveryListener *l) = 0;

    /** Rollback support: drop queued verification work for @p warp_id
     *  with traceId >= @p min_trace_id (re-execution will re-enqueue
     *  it). Returns the number of entries dropped. */
    virtual unsigned squashWarp(unsigned warp_id,
                                std::uint64_t min_trace_id,
                                Cycle now) = 0;

    /** Commit gate: verify anything still pending for @p warp_id
     *  before an irreversible step (EXIT). Returns true if work was
     *  performed. */
    virtual bool preRetireVerify(unsigned warp_id, Cycle now) = 0;

    /** Deferred verification still outstanding? The launch loop keeps
     *  ticking (and feeding onIdleCycle) until this clears. */
    virtual bool hasPending() const = 0;

    /** Occupancy of the scheme's replay queue, if it has one. */
    virtual unsigned replayQueueSize() const = 0;

    /** Called once at the end of a launch, before stats() is read. */
    virtual void finalizeStats() = 0;

    virtual const dmr::DmrStats &stats() const = 0;

    /** Thread-slot -> physical-lane mapping this scheme executes
     *  under (§4.2); Linear for everything but Warped-DMR. */
    virtual const dmr::ThreadCoreMapping &mapping() const = 0;

    /** Copy the mutable state at a cycle boundary (snapshot
     *  support); SchemeState::restoreInto puts it back. */
    virtual std::unique_ptr<SchemeState> saveState() const = 0;

    /** Make the mutable state (what saveState would copy) equal to
     *  @p o's at a cycle boundary, copying into this scheme's own
     *  buffers (the machine fork, sm::Sm::copyFrom). @p o must be a
     *  scheme of the same type and configuration. */
    virtual void copyFrom(const ProtectionScheme &o) = 0;
};

/**
 * @p o as scheme type @p S (const-qualified when @p o is const), the
 * type of the scheme with id @p id; panics when @p o is another
 * scheme. The one type check of a fork and of a rung restore: a
 * scheme id names one scheme class.
 */
template <class S, class P>
S &
sameScheme(SchemeId id, P &o)
{
    if (o.id() != id)
        warped_panic("fork or restore from a different protection scheme");
    return static_cast<S &>(o);
}

/**
 * SchemeState for scheme type @p S whose state is the value type
 * @p StateT, saved by the scheme with id `id`: restoreInto hands it
 * to `S::restoreState` once sameScheme has checked the target's id,
 * bytes() asks `StateT::bytes`.
 */
template <class S, class StateT>
class SchemeStateOf final : public SchemeState
{
  public:
    SchemeStateOf(SchemeId saver, StateT s)
        : id(saver), state(std::move(s))
    {
    }

    void
    restoreInto(ProtectionScheme &scheme) const override
    {
        sameScheme<S>(id, scheme).restoreState(state);
    }

    std::size_t bytes() const override { return state.bytes(); }

    SchemeId id;
    StateT state;
};

/**
 * A scheme whose whole mutable state is the plain value `st_` of type
 * @p StateT: the rung capture, the rung restore and the fork each
 * copy it with one assignment.
 */
template <class StateT>
class PlainStateScheme : public ProtectionScheme
{
  public:
    using State = StateT;

    void restoreState(const State &s) { st_ = s; }

    std::unique_ptr<SchemeState>
    saveState() const override
    {
        return std::make_unique<SchemeStateOf<PlainStateScheme, State>>(
            id(), st_);
    }

    void
    copyFrom(const ProtectionScheme &o) override
    {
        st_ = sameScheme<const PlainStateScheme>(id(), o).st_;
    }

  protected:
    State st_;
};

} // namespace protection
} // namespace warped

#endif // WARPED_PROTECTION_PROTECTION_SCHEME_HH
