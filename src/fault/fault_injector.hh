/**
 * @file
 * Execution-unit fault models: transient bit flips and permanent
 * stuck-at faults on a specific physical SIMT lane (paper §1: only
 * execution units are vulnerable; memory is ECC-protected).
 *
 * Faults are applied at the FaultHook boundary, i.e. to every value a
 * physical lane produces — primary executions *and* DMR verifications
 * alike. A stuck-at lane therefore corrupts its own verification runs
 * too, which is precisely the hidden-error problem lane shuffling
 * exists to solve (§3.2).
 */

#ifndef WARPED_FAULT_FAULT_INJECTOR_HH
#define WARPED_FAULT_FAULT_INJECTOR_HH

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "func/fault_hook.hh"
#include "mem/mem_fault.hh"

namespace warped {
namespace fault {

enum class FaultKind
{
    TransientBitFlip, ///< one-shot flip inside a cycle window
    StuckAtZero,      ///< output bit permanently reads 0
    StuckAtOne,       ///< output bit permanently reads 1
};

const char *faultKindName(FaultKind k);

struct FaultSpec
{
    FaultKind kind = FaultKind::TransientBitFlip;
    unsigned sm = 0;    ///< afflicted SM
    unsigned lane = 0;  ///< afflicted physical SIMT lane
    unsigned bit = 0;   ///< afflicted output bit (0..31)
    /** Active cycle window [begin, end]; stuck-at faults use the
     *  default whole-run window. */
    Cycle cycleBegin = 0;
    Cycle cycleEnd = ~Cycle{0};
    /** Restrict to one execution-unit type (nullopt = any). */
    std::optional<isa::UnitType> unit;

    /**
     * Memory-cell site (set by FaultSiteSpace when the space includes
     * the memory axes): the fault is an upset of the global-memory
     * word at memAddr instead of an execution-lane corruption. The
     * sm/lane/bit/cycle fields above keep their meaning where they
     * apply (bit picks the corrupted cell; cycleBegin is the strike
     * cycle); memBank/memRow/memCol are the site's decoded DRAM
     * geometry, reported for locality breakdowns.
     */
    bool isMemory = false;
    mem::MemFaultKind memKind = mem::MemFaultKind::Bit;
    Addr memAddr = 0;
    unsigned memBank = 0;
    std::uint64_t memRow = 0;
    unsigned memCol = 0;
};

class FaultInjector final : public func::FaultHook
{
  public:
    void add(const FaultSpec &spec) { faults_.push_back(spec); }
    void
    clear()
    {
        faults_.clear();
        activations_ = 0;
        firstActivation_ = 0;
    }

    RegValue apply(RegValue pure, const func::FaultCtx &ctx) override;

    /** Live only on a spec's SM inside its [cycleBegin, cycleEnd]
     *  window: apply() matches on SM and window before anything
     *  else, so outside them it is the identity with no side
     *  effects. */
    bool liveAt(unsigned sm, Cycle cycle) const override;

    /** Has every fault window closed by the end of @p cycle? Hook
     *  calls never look back in time (their cycle is at least the one
     *  being simulated), so after that no fault can activate. */
    bool windowsClosedBy(Cycle cycle) const;

    /** Times a fault actually changed a produced value. */
    std::uint64_t activations() const { return activations_; }

    /** Cycle of the first value-changing activation (valid when
     *  activations() > 0) — the reference point for detection
     *  latency. */
    Cycle firstActivationCycle() const { return firstActivation_; }

  private:
    std::vector<FaultSpec> faults_;
    std::uint64_t activations_ = 0;
    Cycle firstActivation_ = 0;
};

/**
 * Rate-based fault model: every produced value is corrupted with a
 * fixed (small) probability, a random bit each time — the "raw error
 * rate" abstraction used for SDC-rate-vs-fault-rate sweeps. Draws
 * come from a seeded generator, so campaigns are reproducible.
 */
class RandomFaultHook final : public func::FaultHook
{
  public:
    /**
     * @param per_value_prob probability that one produced value is
     *        corrupted (one random bit flip)
     * @param seed           RNG seed
     */
    RandomFaultHook(double per_value_prob, std::uint64_t seed);

    RegValue apply(RegValue pure, const func::FaultCtx &ctx) override;

    std::uint64_t activations() const { return activations_; }

    /**
     * Restore the freshly-constructed state: zero the activation
     * counter and re-seed the generator with the construction seed,
     * so a hook reused across runs draws the identical corruption
     * sequence instead of leaking counter and RNG state from the
     * previous run (the FaultInjector::clear() counterpart).
     */
    void reset();

  private:
    double prob_;
    std::uint64_t seed_;
    Rng rng_;
    std::uint64_t activations_ = 0;
};

} // namespace fault
} // namespace warped

#endif // WARPED_FAULT_FAULT_INJECTOR_HH
