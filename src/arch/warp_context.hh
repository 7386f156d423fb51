/**
 * @file
 * Architectural (functional) state of one warp.
 */

#ifndef WARPED_ARCH_WARP_CONTEXT_HH
#define WARPED_ARCH_WARP_CONTEXT_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "arch/simt_stack.hh"
#include "common/lane_mask.hh"
#include "common/types.hh"

namespace warped {
namespace arch {

/**
 * Per-warp functional state: thread register windows, the SIMT
 * reconvergence stack, exit/barrier status, and the warp's position
 * inside its block/grid.
 *
 * The register file is stored register-major — regs_[r] is a
 * contiguous warpSize-wide plane of lane values — so the executor's
 * structure-of-arrays hot path (Executor::stepInto) can gather a
 * source operand or scatter a destination with one plane copy instead
 * of warpSize strided loads. reg()/setReg() remain the bounds-checked
 * scalar accessors for cold callers (recovery, tests, workload
 * verification).
 */
class WarpContext
{
  public:
    /**
     * @param warp_size      lanes per warp
     * @param num_regs       registers per thread
     * @param block_id       this warp's block index in the grid
     * @param warp_in_block  this warp's index within its block
     * @param block_threads  threads in the block (tail warps partial)
     * @param block_dim      threads per full block
     * @param grid_dim       blocks in the grid
     */
    WarpContext(unsigned warp_size, unsigned num_regs, unsigned block_id,
                unsigned warp_in_block, unsigned block_threads,
                unsigned block_dim, unsigned grid_dim);

    /**
     * Re-point a pooled context at a new warp of the next block:
     * equivalent to destroying and re-constructing with the same
     * warp_size/num_regs, but reuses the register backing store so
     * steady-state launches allocate nothing (Sm keeps contexts alive
     * across block retirement).
     */
    void reinit(unsigned block_id, unsigned warp_in_block,
                unsigned block_threads, unsigned block_dim,
                unsigned grid_dim);

    unsigned warpSize() const { return warpSize_; }
    unsigned numRegs() const { return numRegs_; }
    unsigned blockId() const { return blockId_; }
    unsigned warpInBlock() const { return warpInBlock_; }
    unsigned blockDim() const { return blockDim_; }
    unsigned gridDim() const { return gridDim_; }

    /** Thread index within the block for lane @p lane. */
    unsigned tid(unsigned lane) const
    { return warpInBlock_ * warpSize_ + lane; }

    /** Lanes that actually hold threads (tail warps are partial). */
    LaneMask validLanes() const { return validLanes_; }

    RegValue reg(unsigned lane, RegIndex r) const;
    void setReg(unsigned lane, RegIndex r, RegValue v);

    /** Contiguous per-lane plane of register @p r (SoA hot path);
     *  element i is lane i's value. @p r must be below numRegs():
     *  isa::Program rejects any instruction naming a register outside
     *  its window, so the check is a debug assertion. The mutable
     *  overload counts as a write (see takeWritten), so read through a
     *  const context. */
    const RegValue *
    regPlane(RegIndex r) const
    {
        assert(r < numRegs_);
        return regs_.data() + std::size_t{r} * warpSize_;
    }
    RegValue *
    regPlane(RegIndex r)
    {
        assert(r < numRegs_);
        written_ |= regBit(r);
        return regs_.data() + std::size_t{r} * warpSize_;
    }

    /**
     * Registers possibly written since the previous call, as a bit
     * mask (bit r = register r; bit 63 stands for every register from
     * 63 up), then forget them. Everything counts as written after
     * construction and reinit(). Snapshot capture and the fork
     * (sm::Sm::copyFrom) copy only these register planes.
     */
    std::uint64_t
    takeWritten()
    {
        const std::uint64_t w = written_;
        written_ = 0;
        return w;
    }
    static std::uint64_t
    regBit(RegIndex r)
    {
        return std::uint64_t{1} << (r < 63 ? r : 63);
    }

    /** Everything but the register file and the SIMT stack
     *  (snapshot support). */
    struct Header
    {
        unsigned blockId = 0;
        unsigned warpInBlock = 0;
        unsigned blockDim = 0;
        unsigned gridDim = 0;
        LaneMask validLanes;
        LaneMask exited;
        bool atBarrier = false;
    };
    Header
    header() const
    {
        return {blockId_, warpInBlock_, blockDim_, gridDim_,
                validLanes_, exited_, atBarrier_};
    }
    /** Overwrite everything the header holds with @p h. */
    void
    restoreHeader(const Header &h)
    {
        blockId_ = h.blockId;
        warpInBlock_ = h.warpInBlock;
        blockDim_ = h.blockDim;
        gridDim_ = h.gridDim;
        validLanes_ = h.validLanes;
        exited_ = h.exited;
        atBarrier_ = h.atBarrier;
    }

    /**
     * Make this context equal to @p o (same warp size and register
     * count): header and SIMT stack, and of the register file only the
     * planes @p planes names (bits as in takeWritten) — the caller
     * knows the others already match. Afterwards nothing counts as
     * written.
     */
    void copyFrom(const WarpContext &o, std::uint64_t planes);

    SimtStack &stack() { return stack_; }
    const SimtStack &stack() const { return stack_; }

    /** Threads that executed EXIT. */
    LaneMask exited() const { return exited_; }
    void markExited(LaneMask m);

    /** Rollback support: overwrite the exited set with a snapshot.
     *  Unlike markExited this does not touch the SIMT stack — the
     *  recovery engine restores the stack separately. */
    void restoreExited(LaneMask m) { exited_ = m; }

    bool atBarrier() const { return atBarrier_; }
    void setAtBarrier(bool b) { atBarrier_ = b; }

    /** All threads exited (or the warp never had any). */
    bool finished() const { return stack_.done(); }

  private:
    unsigned warpSize_;
    unsigned numRegs_;
    unsigned blockId_;
    unsigned warpInBlock_;
    unsigned blockDim_;
    unsigned gridDim_;
    LaneMask validLanes_;
    LaneMask exited_;
    bool atBarrier_ = false;
    SimtStack stack_;
    std::vector<RegValue> regs_; ///< register-major: [r * warpSize + lane]
    std::uint64_t written_ = ~std::uint64_t{0}; ///< see takeWritten
};

} // namespace arch
} // namespace warped

#endif // WARPED_ARCH_WARP_CONTEXT_HH
