/**
 * @file
 * Register scoreboard: per-warp write-completion tracking.
 *
 * The simulator executes functionally at schedule time, so the
 * scoreboard's only job is timing: an instruction may not issue until
 * every source and its destination register have been written back by
 * earlier instructions (RAW and WAW in issue order). Loads hold their
 * destination for the memory latency, which is what produces the
 * >= 8-cycle RAW distances of Fig 8b.
 */

#ifndef WARPED_SM_SCOREBOARD_HH
#define WARPED_SM_SCOREBOARD_HH

#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace warped {
namespace sm {

class Scoreboard
{
  public:
    /**
     * @param num_warps warp slots tracked
     * @param num_regs  registers per thread
     */
    Scoreboard(unsigned num_warps, unsigned num_regs);

    /** Can @p in of warp @p warp issue at @p now? */
    bool ready(unsigned warp, const isa::Instruction &in, Cycle now) const;

    /** Record that @p in issued at @p now and its destination becomes
     *  visible at @p writeback. */
    void issue(unsigned warp, const isa::Instruction &in, Cycle writeback);

    /** Cycle the register becomes readable (0 = never written). */
    Cycle readyAt(unsigned warp, RegIndex r) const;

    /** Clear one warp slot (block retirement / reassignment). */
    void resetWarp(unsigned warp);

    /** Warp @p warp's row: readyAt for each of the numRegs()
     *  registers (snapshot support — a free slot's row is all 0). */
    const Cycle *row(unsigned warp) const
    {
        return readyAt_.data() + std::size_t{warp} * numRegs_;
    }
    Cycle *row(unsigned warp)
    {
        return readyAt_.data() + std::size_t{warp} * numRegs_;
    }
    unsigned numRegs() const { return numRegs_; }

  private:
    unsigned numRegs_;
    std::vector<Cycle> readyAt_; ///< [warp * numRegs + r]
};

} // namespace sm
} // namespace warped

#endif // WARPED_SM_SCOREBOARD_HH
