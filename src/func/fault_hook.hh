/**
 * @file
 * The execution-unit fault boundary.
 *
 * Every per-lane result the simulator computes (arithmetic results and
 * memory-address computations) passes through a FaultHook keyed by the
 * *physical* SIMT lane that produced it. The fault-injection framework
 * implements this interface; the default NullFaultHook is the
 * fault-free machine. Because primary execution and DMR verification
 * run on different physical lanes (RFU pairing, lane shuffling), a
 * per-lane fault makes them disagree — which is exactly what the
 * paper's comparator detects.
 */

#ifndef WARPED_FUNC_FAULT_HOOK_HH
#define WARPED_FUNC_FAULT_HOOK_HH

#include "common/types.hh"
#include "isa/opcode.hh"

namespace warped {
namespace func {

/** Where/when a lane-level computation happened. */
struct FaultCtx
{
    unsigned sm = 0;        ///< streaming multiprocessor index
    unsigned lane = 0;      ///< physical SIMT lane (post-mapping)
    isa::UnitType unit = isa::UnitType::SP;
    Cycle cycle = 0;
    bool isAddress = false; ///< memory-address computation
};

class FaultHook
{
  public:
    virtual ~FaultHook() = default;

    /** Transform the pure result into what the (possibly faulty)
     *  physical unit actually produces. */
    virtual RegValue apply(RegValue pure, const FaultCtx &ctx) = 0;

    /**
     * May apply() return anything but `pure` for a value produced on
     * SM @p sm at cycle @p cycle (any lane, any unit)? false is a
     * promise: apply() is the identity there and calling it has no
     * side effects, so the executor and the DMR verify loops may skip
     * it and take the vectorized plane path. The default (always
     * live) is safe for any hook.
     */
    virtual bool liveAt(unsigned /*sm*/, Cycle /*cycle*/) const
    {
        return true;
    }
};

/** The fault-free machine. */
class NullFaultHook final : public FaultHook
{
  public:
    RegValue apply(RegValue pure, const FaultCtx &) override
    { return pure; }

    bool liveAt(unsigned, Cycle) const override { return false; }

    /** Shared singleton. The hook carries no state, so one instance
     *  may be applied concurrently from any number of simulation
     *  threads; initialization is thread-safe (function-local
     *  static). */
    static NullFaultHook &instance();
};

} // namespace func
} // namespace warped

#endif // WARPED_FUNC_FAULT_HOOK_HH
