#include "protection/replay_compare_scheme.hh"

#include "dmr/recovery_listener.hh"

namespace warped {
namespace protection {

std::size_t
ReplayCompareScheme::State::bytes() const
{
    return base.bytes() + sizeof(*this) +
           candidates.size() * sizeof(Candidate);
}

void
ReplayCompareScheme::restoreState(const State &s)
{
    SoftwareSchemeBase::restoreState(s.base);
    candidates_ = s.candidates;
    droppedCandidates_ = s.droppedCandidates;
    replayExecs_ = s.replayExecs;
    firstIssue_ = s.firstIssue;
    lastIssue_ = s.lastIssue;
    any_ = s.any;
    phase_ = s.phase;
    replayLeft_ = s.replayLeft;
}

void
ReplayCompareScheme::copyFrom(const ProtectionScheme &o)
{
    const ReplayCompareScheme &r = sameScheme(*this, o);
    stats_ = r.stats_;
    candidates_ = r.candidates_;
    droppedCandidates_ = r.droppedCandidates_;
    replayExecs_ = r.replayExecs_;
    firstIssue_ = r.firstIssue_;
    lastIssue_ = r.lastIssue_;
    any_ = r.any_;
    phase_ = r.phase_;
    replayLeft_ = r.replayLeft_;
}

std::unique_ptr<SchemeState>
ReplayCompareScheme::saveState() const
{
    return std::make_unique<SchemeStateOf<ReplayCompareScheme, State>>(
        State{{stats_}, candidates_, droppedCandidates_, replayExecs_,
              firstIssue_, lastIssue_, any_, phase_, replayLeft_});
}

unsigned
ReplayCompareScheme::onIssue(const func::ExecRecord &rec, Cycle now)
{
    if (!any_) {
        any_ = true;
        firstIssue_ = now;
    }
    lastIssue_ = now;
    // Nothing is verified before the end of the kernel, so from a
    // per-instruction consumer's view every record is unprotected.
    if (listener_)
        listener_->onUnprotected(rec);
    if (!rec.verifiable())
        return 0;
    const unsigned active = rec.active.count();
    stats_.verifiableThreadInstrs += active;
    replayExecs_[static_cast<unsigned>(rec.instr.unit())] += active;
    // A clean record's results are the hook-free recompute itself:
    // no slot can become a candidate.
    if (rec.clean)
        return 0;
    // The eager hook-free recompute is one vectorized plane pass; the
    // per-slot loop below only filters it against the committed
    // results (bit-identical to per-slot computeLane).
    std::array<RegValue, func::kMaxWarp> pure;
    func::Executor::computePlane(rec.instr, rec.operands, rec.laneInfo,
                                 gpu_.warpSize, pure.data());
    for (unsigned slot = 0; slot < gpu_.warpSize; ++slot) {
        if (!rec.active.test(slot))
            continue;
        if (pure[slot] == rec.results[slot])
            continue; // will compare equal on replay too
        if (candidates_.size() >= kMaxCandidates) {
            ++droppedCandidates_;
            continue;
        }
        Candidate c;
        c.instr = rec.instr;
        c.ops = {rec.operands[0][slot], rec.operands[1][slot],
                 rec.operands[2][slot]};
        c.laneInfo = rec.laneInfo[slot];
        c.result = rec.results[slot];
        c.slot = slot;
        c.lane = mapping_.laneOf(slot);
        c.warpId = rec.warpId;
        c.pc = rec.pc;
        candidates_.push_back(c);
    }
    return 0;
}

void
ReplayCompareScheme::onIdleCycle(Cycle now, bool sm_busy)
{
    if (sm_busy || !any_ || phase_ == Phase::Done)
        return;
    if (phase_ == Phase::Recording) {
        // Warps retired: the replay run starts, costing the primary
        // run's issue span again.
        phase_ = Phase::Replaying;
        replayLeft_ = lastIssue_ - firstIssue_ + 1;
    }
    if (replayLeft_ > 0) {
        --replayLeft_;
        ++stats_.finalDrainCycles;
    }
    if (replayLeft_ == 0)
        finishReplay(now);
}

std::uint64_t
ReplayCompareScheme::drainAll(Cycle now)
{
    std::uint64_t cycles = 0;
    while (hasPending()) {
        onIdleCycle(now + cycles, false);
        ++cycles;
    }
    return cycles;
}

void
ReplayCompareScheme::finishReplay(Cycle end)
{
    phase_ = Phase::Done;
    for (const auto &c : candidates_) {
        // Re-execute the corrupted slot on the same lane at replay
        // time; only a fault still active *now* can reproduce the
        // corruption and hide it from the comparator.
        func::FaultCtx ctx;
        ctx.sm = exec_.smId();
        ctx.lane = c.lane;
        ctx.unit = c.instr.unit();
        ctx.cycle = end;
        ctx.isAddress = c.instr.isMem();
        const RegValue pure =
            func::Executor::computeLane(c.instr, c.ops, c.laneInfo);
        const RegValue got = exec_.hook().apply(pure, ctx);
        ++stats_.comparisons;
        if (got != c.result) {
            ++stats_.errorsDetected;
            if (stats_.errorLog.size() < dmr::DmrStats::kMaxErrorLog) {
                dmr::ErrorEvent ev;
                ev.cycle = end;
                ev.sm = exec_.smId();
                ev.warpId = c.warpId;
                ev.pc = c.pc;
                ev.slot = c.slot;
                ev.primaryLane = c.lane;
                ev.checkerLane = c.lane;
                ev.primary = c.result;
                ev.checker = got;
                ev.intraWarp = false;
                stats_.errorLog.push_back(ev);
            }
        }
    }
    // The replay run re-executed and compared the whole kernel.
    stats_.verifiedThreadInstrs = stats_.verifiableThreadInstrs;
    stats_.interVerifiedThreads = stats_.verifiedThreadInstrs;
    for (std::size_t u = 0; u < replayExecs_.size(); ++u)
        stats_.redundantThreadExecs[u] += replayExecs_[u];
}

} // namespace protection
} // namespace warped
