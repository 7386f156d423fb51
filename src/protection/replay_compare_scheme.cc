#include "protection/replay_compare_scheme.hh"

#include "dmr/recovery_listener.hh"

namespace warped {
namespace protection {

unsigned
ReplayCompareScheme::onIssue(const func::ExecRecord &rec, Cycle now)
{
    if (!st_.any) {
        st_.any = true;
        st_.firstIssue = now;
    }
    st_.lastIssue = now;
    // Nothing is verified before the end of the kernel, so from a
    // per-instruction consumer's view every record is unprotected.
    if (listener_)
        listener_->onUnprotected(rec);
    if (!rec.verifiable())
        return 0;
    const unsigned active = rec.active.count();
    st_.stats.verifiableThreadInstrs += active;
    st_.replayExecs[static_cast<unsigned>(rec.instr.unit())] += active;
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
        if (st_.candidates.size() >= kMaxCandidates) {
            ++st_.droppedCandidates;
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
        st_.candidates.push_back(c);
    }
    return 0;
}

void
ReplayCompareScheme::onIdleCycle(Cycle now, bool sm_busy)
{
    if (sm_busy || !st_.any || st_.phase == Phase::Done)
        return;
    if (st_.phase == Phase::Recording) {
        // Warps retired: the replay run starts, costing the primary
        // run's issue span again.
        st_.phase = Phase::Replaying;
        st_.replayLeft = st_.lastIssue - st_.firstIssue + 1;
    }
    if (st_.replayLeft > 0) {
        --st_.replayLeft;
        ++st_.stats.finalDrainCycles;
    }
    if (st_.replayLeft == 0)
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
    st_.phase = Phase::Done;
    for (const auto &c : st_.candidates) {
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
        ++st_.stats.comparisons;
        if (got != c.result) {
            ++st_.stats.errorsDetected;
            if (st_.stats.errorLog.size() < dmr::DmrStats::kMaxErrorLog) {
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
                st_.stats.errorLog.push_back(ev);
            }
        }
    }
    // The replay run re-executed and compared the whole kernel.
    st_.stats.verifiedThreadInstrs = st_.stats.verifiableThreadInstrs;
    st_.stats.interVerifiedThreads = st_.stats.verifiedThreadInstrs;
    for (std::size_t u = 0; u < st_.replayExecs.size(); ++u)
        st_.stats.redundantThreadExecs[u] += st_.replayExecs[u];
}

} // namespace protection
} // namespace warped
