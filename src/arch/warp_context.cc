#include "arch/warp_context.hh"

#include <algorithm>

#include "common/logging.hh"

namespace warped {
namespace arch {

WarpContext::WarpContext(unsigned warp_size, unsigned num_regs,
                         unsigned block_id, unsigned warp_in_block,
                         unsigned block_threads, unsigned block_dim,
                         unsigned grid_dim)
    : warpSize_(warp_size), numRegs_(num_regs),
      regs_(warp_size * num_regs, 0)
{
    reinit(block_id, warp_in_block, block_threads, block_dim, grid_dim);
}

void
WarpContext::reinit(unsigned block_id, unsigned warp_in_block,
                    unsigned block_threads, unsigned block_dim,
                    unsigned grid_dim)
{
    blockId_ = block_id;
    warpInBlock_ = warp_in_block;
    blockDim_ = block_dim;
    gridDim_ = grid_dim;
    validLanes_ = LaneMask{};
    exited_ = LaneMask{};
    atBarrier_ = false;
    std::fill(regs_.begin(), regs_.end(), RegValue{0});
    written_ = ~std::uint64_t{0};

    const unsigned first = warp_in_block * warpSize_;
    for (unsigned lane = 0; lane < warpSize_; ++lane) {
        if (first + lane < block_threads)
            validLanes_.set(lane);
    }
    stack_.reset(validLanes_, 0);
}

RegValue
WarpContext::reg(unsigned lane, RegIndex r) const
{
    if (lane >= warpSize_ || r >= numRegs_)
        warped_panic("register read out of range: lane ", lane, " r",
                     unsigned(r));
    return regs_[std::size_t{r} * warpSize_ + lane];
}

void
WarpContext::setReg(unsigned lane, RegIndex r, RegValue v)
{
    if (lane >= warpSize_ || r >= numRegs_)
        warped_panic("register write out of range: lane ", lane, " r",
                     unsigned(r));
    regs_[std::size_t{r} * warpSize_ + lane] = v;
    written_ |= regBit(r);
}

const RegValue *
WarpContext::regPlane(RegIndex r) const
{
    if (r >= numRegs_)
        warped_panic("register plane out of range: r", unsigned(r));
    return regs_.data() + std::size_t{r} * warpSize_;
}

RegValue *
WarpContext::regPlane(RegIndex r)
{
    if (r >= numRegs_)
        warped_panic("register plane out of range: r", unsigned(r));
    written_ |= regBit(r);
    return regs_.data() + std::size_t{r} * warpSize_;
}

void
WarpContext::markExited(LaneMask m)
{
    exited_ |= m;
    stack_.exitThreads(m);
}

} // namespace arch
} // namespace warped
