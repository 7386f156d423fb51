#include "protection/software_schemes.hh"

#include "dmr/recovery_listener.hh"
#include "isa/instruction.hh"

namespace warped {
namespace protection {

bool
verifySlotThroughHook(func::Executor &exec,
                      const dmr::ThreadCoreMapping &mapping,
                      dmr::DmrStats &stats, const func::ExecRecord &rec,
                      unsigned slot, unsigned checker_lane,
                      Cycle fault_cycle, Cycle log_cycle)
{
    const std::array<RegValue, 3> ops = {rec.operands[0][slot],
                                         rec.operands[1][slot],
                                         rec.operands[2][slot]};
    const RegValue pure =
        func::Executor::computeLane(rec.instr, ops, rec.laneInfo[slot]);
    func::FaultCtx ctx;
    ctx.sm = exec.smId();
    ctx.lane = checker_lane;
    ctx.unit = rec.instr.unit();
    ctx.cycle = fault_cycle;
    ctx.isAddress = rec.instr.isMem();
    const RegValue got = exec.hook().apply(pure, ctx);
    ++stats.comparisons;
    const bool mismatch = got != rec.results[slot];
    if (mismatch) {
        ++stats.errorsDetected;
        if (stats.errorLog.size() < dmr::DmrStats::kMaxErrorLog) {
            const unsigned primary_lane = mapping.laneOf(slot);
            dmr::ErrorEvent ev;
            ev.cycle = log_cycle;
            ev.sm = exec.smId();
            ev.warpId = rec.warpId;
            ev.pc = rec.pc;
            ev.slot = slot;
            ev.primaryLane = primary_lane;
            ev.checkerLane = checker_lane;
            ev.primary = rec.results[slot];
            ev.checker = got;
            ev.intraWarp = checker_lane != primary_lane;
            stats.errorLog.push_back(ev);
        }
    }
    return mismatch;
}

unsigned
RNaiveScheme::onIssue(const func::ExecRecord &rec, Cycle now)
{
    // The modeled second kernel run re-executes *every* instruction,
    // so each issue charges one serialization cycle regardless of
    // verifiability.
    if (!rec.verifiable()) {
        if (listener_)
            listener_->onUnprotected(rec);
        return 1;
    }
    const unsigned unit = static_cast<unsigned>(rec.instr.unit());
    unsigned verified = 0;
    bool mismatch = false;
    st_.stats.verifiableThreadInstrs += rec.active.count();
    for (unsigned slot = 0; slot < gpu_.warpSize; ++slot) {
        if (!rec.active.test(slot))
            continue;
        // Same physical lane, second-run cycle: transients expired,
        // stuck-at reproduced (and thus missed) — kernel re-execution
        // on the same silicon.
        const unsigned lane = mapping_.laneOf(slot);
        if (verifySlotAt(rec, slot, lane, now + kSecondRunOffset, now))
            mismatch = true;
        ++verified;
        ++st_.stats.redundantThreadExecs[unit];
    }
    st_.stats.verifiedThreadInstrs += verified;
    st_.stats.interVerifiedThreads += verified;
    if (listener_)
        listener_->onVerified(rec, mismatch, now);
    return 1;
}

unsigned
RThreadScheme::onIssue(const func::ExecRecord &rec, Cycle now)
{
    const unsigned n = gpu_.warpSize;
    const unsigned active = rec.active.count();
    // Every thread is duplicated; the warp's idle lanes absorb what
    // they can and the overflow serializes, accumulated into whole
    // extra issue cycles.
    const unsigned spare = n - active;
    if (active > spare)
        st_.stallAcc += active - spare;

    if (!rec.verifiable()) {
        if (listener_)
            listener_->onUnprotected(rec);
    } else {
        const unsigned unit = static_cast<unsigned>(rec.instr.unit());
        unsigned verified = 0;
        bool mismatch = false;
        st_.stats.verifiableThreadInstrs += active;
        for (unsigned slot = 0; slot < n; ++slot) {
            if (!rec.active.test(slot))
                continue;
            // Duplicate on the mirror lane, same cycle: a different
            // physical lane (stuck-at caught) at the original time
            // (transients caught).
            const unsigned checker_lane = n - 1 - mapping_.laneOf(slot);
            if (verifySlotAt(rec, slot, checker_lane, now, now))
                mismatch = true;
            ++verified;
            ++st_.stats.redundantThreadExecs[unit];
        }
        st_.stats.verifiedThreadInstrs += verified;
        st_.stats.intraVerifiedThreads += verified;
        if (listener_)
            listener_->onVerified(rec, mismatch, now);
    }

    const unsigned stall = static_cast<unsigned>(st_.stallAcc / n);
    st_.stallAcc %= n;
    return stall;
}

} // namespace protection
} // namespace warped
