/**
 * @file
 * RepTFD-style replay-and-compare (arXiv 1206.2132): run the kernel
 * to completion, re-execute the whole kernel, and compare at the end.
 * Detection latency is therefore kernel-granular — this backend is
 * the real scheme behind the campaign's "compare-at-kernel-end"
 * latency baseline.
 *
 * Model: during the primary run every verifiable thread-execution is
 * eagerly recomputed hook-free; slots whose committed result diverges
 * from the pure value (i.e. the fault hook actually corrupted them)
 * are remembered as replay candidates. Once the SM's warps retire,
 * the scheme consumes one drain cycle per primary-run issue-span
 * cycle (the replay run), then re-evaluates every candidate through
 * the fault hook at the replay's end cycle: transient pulses — whose
 * windows live inside the primary run — have expired and are
 * detected; stuck-at faults reproduce on the same lane during replay
 * and escape, the scheme's fundamental blind spot. Slots the hook
 * never corrupted compare equal on both runs by construction
 * (transient windows cannot cover the later replay cycles), so
 * tracking only corrupted slots loses no detections.
 */

#ifndef WARPED_PROTECTION_REPLAY_COMPARE_SCHEME_HH
#define WARPED_PROTECTION_REPLAY_COMPARE_SCHEME_HH

#include <vector>

#include "isa/instruction.hh"
#include "protection/software_schemes.hh"

namespace warped {
namespace protection {

/** ReplayCompareScheme's state: the counters plus the recording and
 *  replay progress. */
struct ReplayCompareState : SoftwareState
{
    /** A slot the fault hook corrupted in the primary run. */
    struct Candidate
    {
        isa::Instruction instr;
        std::array<RegValue, 3> ops;
        func::LaneInfo laneInfo;
        RegValue result = 0;
        unsigned slot = 0;
        unsigned lane = 0;
        unsigned warpId = 0;
        Pc pc = 0;
    };

    enum class Phase
    {
        Recording,
        Replaying,
        Done
    };

    std::vector<Candidate> candidates;
    std::uint64_t droppedCandidates = 0;
    std::array<std::uint64_t, isa::kNumUnitTypes> replayExecs{};
    Cycle firstIssue = 0;
    Cycle lastIssue = 0;
    bool any = false;
    Phase phase = Phase::Recording;
    Cycle replayLeft = 0;

    std::size_t
    bytes() const
    {
        return sizeof(*this) +
               stats.errorLog.size() * sizeof(dmr::ErrorEvent) +
               candidates.size() * sizeof(Candidate);
    }
};

class ReplayCompareScheme final
    : public SoftwareSchemeBase<ReplayCompareState>
{
  public:
    using SoftwareSchemeBase::SoftwareSchemeBase;

    SchemeId id() const override { return SchemeId::ReplayCompare; }
    /** Detection arrives after the warps (and any rollback state)
     *  are gone: recovery cannot compose with this scheme. */
    bool supportsRecovery() const override { return false; }

    unsigned onIssue(const func::ExecRecord &rec, Cycle now) override;
    void onIdleCycle(Cycle now, bool sm_busy) override;
    std::uint64_t drainAll(Cycle now) override;
    bool
    hasPending() const override
    {
        return st_.any && st_.phase != State::Phase::Done;
    }

  private:
    using Candidate = State::Candidate;
    using Phase = State::Phase;

    void finishReplay(Cycle end);

    /** Bound on remembered corrupted slots; overflow is counted and
     *  conservatively dropped (an undetected candidate, not a crash). */
    static constexpr std::size_t kMaxCandidates = 4096;
};

} // namespace protection
} // namespace warped

#endif // WARPED_PROTECTION_REPLAY_COMPARE_SCHEME_HH
