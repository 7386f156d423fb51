#include "fault/fault_injector.hh"

namespace warped {
namespace fault {

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::TransientBitFlip:
        return "transient bit flip";
      case FaultKind::StuckAtZero:
        return "stuck-at-0";
      case FaultKind::StuckAtOne:
        return "stuck-at-1";
    }
    return "?";
}

RegValue
FaultInjector::apply(RegValue pure, const func::FaultCtx &ctx)
{
    RegValue out = pure;
    for (const auto &f : faults_) {
        if (ctx.sm != f.sm || ctx.lane != f.lane)
            continue;
        if (f.unit && *f.unit != ctx.unit)
            continue;
        if (ctx.cycle < f.cycleBegin || ctx.cycle > f.cycleEnd)
            continue;
        const RegValue mask = RegValue{1} << f.bit;
        switch (f.kind) {
          case FaultKind::TransientBitFlip:
            out ^= mask;
            break;
          case FaultKind::StuckAtZero:
            out &= ~mask;
            break;
          case FaultKind::StuckAtOne:
            out |= mask;
            break;
        }
    }
    if (out != pure) {
        if (activations_ == 0)
            firstActivation_ = ctx.cycle;
        ++activations_;
    }
    return out;
}

bool
FaultInjector::liveAt(unsigned sm, Cycle cycle) const
{
    for (const auto &f : faults_) {
        if (f.sm == sm && cycle >= f.cycleBegin && cycle <= f.cycleEnd)
            return true;
    }
    return false;
}

bool
FaultInjector::windowsClosedBy(Cycle cycle) const
{
    for (const auto &f : faults_) {
        if (f.cycleEnd > cycle)
            return false;
    }
    return true;
}

RandomFaultHook::RandomFaultHook(double per_value_prob,
                                 std::uint64_t seed)
    : prob_(per_value_prob), seed_(seed), rng_(seed)
{
}

void
RandomFaultHook::reset()
{
    rng_ = Rng(seed_);
    activations_ = 0;
}

RegValue
RandomFaultHook::apply(RegValue pure, const func::FaultCtx &)
{
    if (prob_ <= 0.0 || !rng_.nextBool(prob_))
        return pure;
    ++activations_;
    return pure ^ (RegValue{1} << rng_.nextBelow(32));
}

} // namespace fault
} // namespace warped
