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
        stallAcc_ += dups - spare;

    if (!rec.verifiable()) {
        if (listener_)
            listener_->onUnprotected(rec);
    } else {
        partial_.verifiableThreadInstrs += active;
        ++partial_.intraWarpInstrs;
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
            if (verifySlotThroughHook(exec_, map, partial_, rec, slot,
                                      checker, now, now))
                mismatch = true;
            ++verified;
            ++partial_.redundantThreadExecs[unit];
        }
        partial_.verifiedThreadInstrs += verified;
        partial_.intraVerifiedThreads += verified;
        if (listener_)
            listener_->onVerified(rec, mismatch, now);
    }

    const unsigned stall = static_cast<unsigned>(stallAcc_ / n);
    stallAcc_ %= n;
    return stall;
}

void
PartialThreadScheme::restoreState(const State &s)
{
    engine_.restoreState(s.engine);
    stallAcc_ = s.stallAcc;
    partial_ = s.partial;
}

std::unique_ptr<SchemeState>
PartialThreadScheme::saveState() const
{
    return std::make_unique<SchemeStateOf<PartialThreadScheme, State>>(
        State{engine_.saveStateValue(), stallAcc_, partial_});
}

void
PartialThreadScheme::copyFrom(const ProtectionScheme &o)
{
    const PartialThreadScheme &p = sameScheme(*this, o);
    engine_.copyFrom(p.engine_);
    stallAcc_ = p.stallAcc_;
    partial_ = p.partial_;
}

const dmr::DmrStats &
PartialThreadScheme::stats() const
{
    combined_ = engine_.stats();
    const dmr::DmrStats &p = partial_;
    combined_.verifiableThreadInstrs += p.verifiableThreadInstrs;
    combined_.verifiedThreadInstrs += p.verifiedThreadInstrs;
    combined_.intraVerifiedThreads += p.intraVerifiedThreads;
    combined_.interVerifiedThreads += p.interVerifiedThreads;
    combined_.intraWarpInstrs += p.intraWarpInstrs;
    combined_.interWarpInstrs += p.interWarpInstrs;
    combined_.comparisons += p.comparisons;
    combined_.errorsDetected += p.errorsDetected;
    for (std::size_t u = 0; u < p.redundantThreadExecs.size(); ++u)
        combined_.redundantThreadExecs[u] += p.redundantThreadExecs[u];
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
