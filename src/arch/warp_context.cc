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

void
WarpContext::copyFrom(const WarpContext &o, std::uint64_t planes)
{
    restoreHeader(o.header());
    stack_ = o.stack_;
    if (planes == ~std::uint64_t{0}) {
        regs_ = o.regs_;
    } else {
        for (unsigned r = 0; r < numRegs_; ++r)
            if (planes & regBit(static_cast<RegIndex>(r)))
                std::copy_n(o.regs_.data() + std::size_t{r} * warpSize_,
                            warpSize_,
                            regs_.data() + std::size_t{r} * warpSize_);
    }
    written_ = 0;
}

void
WarpContext::markExited(LaneMask m)
{
    exited_ |= m;
    stack_.exitThreads(m);
}

} // namespace arch
} // namespace warped
