#include "protection/partial_thread_scheme.hh"

#include <algorithm>
#include <cmath>

#include "dmr/recovery_listener.hh"
#include "isa/instruction.hh"
#include "protection/software_schemes.hh"

namespace warped {
namespace protection {

PartialThreadScheme::PartialThreadScheme(const arch::GpuConfig &gpu,
                                         const dmr::DmrConfig &dcfg,
                                         func::Executor &exec,
                                         std::uint64_t seed,
                                         double protect_fraction)
    : gpu_(gpu), exec_(exec), engine_(gpu, dcfg, exec, seed)
{
    const double f = std::clamp(protect_fraction, 0.0, 1.0);
    protectedSlots_ = static_cast<unsigned>(
        std::ceil(f * static_cast<double>(gpu.warpSize)));
    protectedSlots_ = std::min(protectedSlots_, gpu.warpSize);
    protectedMask_ = LaneMask::full(protectedSlots_);
}

void
PartialThreadScheme::attachRecoveryListener(dmr::RecoveryListener *l)
{
    listener_ = l;
    engine_.attachRecoveryListener(l);
}

unsigned
PartialThreadScheme::onIssue(const func::ExecRecord &rec, Cycle now)
{
    // Fully inside the protected prefix: indistinguishable from a
    // fully-protected warp, so the engine handles it unchanged (with
    // protectFraction == 1.0 this is every warp).
    if ((rec.active & ~protectedMask_).none())
        return engine_.onIssue(rec, now);

    // Mixed warp: duplicate the protected slots into spare lanes now;
    // the vulnerable remainder runs bare.
    const LaneMask prot = rec.active & protectedMask_;
    const unsigned n = gpu_.warpSize;
    const unsigned active = rec.active.count();
    const unsigned dups = prot.count();
    const unsigned spare = n - active;
    if (dups > spare)
        partial_.stallAcc += dups - spare;

    if (!rec.verifiable()) {
        if (listener_)
            listener_->onUnprotected(rec);
    } else {
        partial_.stats.verifiableThreadInstrs += active;
        ++partial_.stats.intraWarpInstrs;
        const unsigned unit = static_cast<unsigned>(rec.instr.unit());
        const auto &map = engine_.mapping();
        const unsigned w = gpu_.lanesPerCluster;
        const bool shuffle = engine_.config().laneShuffle;
        unsigned verified = 0;
        bool mismatch = false;
        for (unsigned slot = 0; slot < n; ++slot) {
            if (!prot.test(slot))
                continue;
            const unsigned primary = map.laneOf(slot);
            const unsigned checker =
                shuffle ? dmr::shuffledLane(primary, w) : primary;
            if (verifySlotThroughHook(exec_, map, partial_.stats, rec, slot,
                                      checker, now, now))
                mismatch = true;
            ++verified;
            ++partial_.stats.redundantThreadExecs[unit];
        }
        partial_.stats.verifiedThreadInstrs += verified;
        partial_.stats.intraVerifiedThreads += verified;
        if (listener_)
            listener_->onVerified(rec, mismatch, now);
    }

    const unsigned stall = static_cast<unsigned>(partial_.stallAcc / n);
    partial_.stallAcc %= n;
    return stall;
}

void
PartialThreadScheme::restoreState(const State &s)
{
    engine_.restoreState(s.engine);
    partial_ = s.partial;
}

std::unique_ptr<SchemeState>
PartialThreadScheme::saveState() const
{
    return std::make_unique<SchemeStateOf<PartialThreadScheme, State>>(
        id(), State{engine_.saveStateValue(), partial_});
}

void
PartialThreadScheme::copyFrom(const ProtectionScheme &o)
{
    const auto &p = sameScheme<const PartialThreadScheme>(id(), o);
    engine_.copyFrom(p.engine_);
    partial_ = p.partial_;
}

const dmr::DmrStats &
PartialThreadScheme::stats() const
{
    combined_ = engine_.stats();
    const dmr::DmrStats &p = partial_.stats;
    combined_.addCounters(p);
    if (!p.errorLog.empty()) {
        combined_.errorLog.insert(combined_.errorLog.end(),
                                  p.errorLog.begin(), p.errorLog.end());
        std::stable_sort(combined_.errorLog.begin(),
                         combined_.errorLog.end(),
                         [](const dmr::ErrorEvent &a,
                            const dmr::ErrorEvent &b) {
                             return a.cycle < b.cycle;
                         });
        if (combined_.errorLog.size() > dmr::DmrStats::kMaxErrorLog)
            combined_.errorLog.resize(dmr::DmrStats::kMaxErrorLog);
    }
    return combined_;
}

} // namespace protection
} // namespace warped
