/**
 * @file
 * Immediate-post-dominator SIMT reconvergence stack.
 *
 * Lock-step warp execution with a single PC (paper §2.2): on a
 * divergent branch the warp serializes the two paths and reconverges
 * at the branch's immediate post-dominator. The stack discipline is
 * the classic PDOM scheme used by GPGPU-Sim:
 *
 *  - the entry being diverged is retargeted to the reconvergence PC
 *    and keeps the full pre-divergence mask (it resumes when all
 *    subgroups arrive there);
 *  - each subgroup whose next PC is not already the reconvergence PC
 *    is pushed as a new entry with rpc = the reconvergence PC;
 *  - whenever the top entry's PC reaches its rpc it is popped.
 *
 * Pure "trampoline" entries (pc == rpc at divergence time, which
 * happens every iteration of a divergent loop) are elided so the
 * stack depth is bounded by control-flow nesting rather than by loop
 * trip counts.
 */

#ifndef WARPED_ARCH_SIMT_STACK_HH
#define WARPED_ARCH_SIMT_STACK_HH

#include <vector>

#include "common/lane_mask.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace warped {
namespace arch {

class SimtStack
{
  public:
    struct Entry
    {
        LaneMask mask;
        Pc pc = 0;
        Pc rpc = isa::kNoPc;
    };

    SimtStack() = default;

    /** Start execution of a warp: all of @p initial at @p entry. */
    void reset(LaneMask initial, Pc entry = 0);

    /** True when no threads remain (all exited). */
    bool done() const { return stack_.empty(); }

    /** Current PC of the warp (top of stack). */
    Pc pc() const;

    /** Threads active for the instruction at pc(). */
    LaneMask activeMask() const;

    /** Depth, for diagnostics and property tests. */
    unsigned depth() const { return stack_.size(); }

    /** The entries bottom to top (snapshot support). */
    const std::vector<Entry> &entries() const { return stack_; }
    /** Replace the entries with [@p first, @p last), bottom to top. */
    void
    assign(const Entry *first, const Entry *last)
    {
        stack_.assign(first, last);
    }

    /**
     * Complete a non-branch instruction: PC advances to @p next
     * (normally pc()+1) and converged tops are popped.
     */
    void advanceTo(Pc next);

    /**
     * Complete a branch: @p taken is the sub-mask of activeMask() that
     * takes the branch to @p target; the rest fall through to
     * @p fallthrough. @p reconv is the immediate post-dominator
     * (isa::kNoPc allowed only when the branch cannot diverge).
     */
    void branch(LaneMask taken, Pc target, Pc fallthrough, Pc reconv);

    /**
     * Remove exited threads from every entry (divergent EXIT support);
     * empty entries are dropped.
     */
    void exitThreads(LaneMask exited);

  private:
    void popConverged();

    std::vector<Entry> stack_;

    /// Hard bound: nesting can never legitimately exceed this.
    static constexpr unsigned kMaxDepth = 512;
};

} // namespace arch
} // namespace warped

#endif // WARPED_ARCH_SIMT_STACK_HH
