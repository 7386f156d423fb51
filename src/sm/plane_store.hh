/**
 * @file
 * Register planes shared by the snapshots of one capturing launch.
 *
 * Between two snapshot rungs a warp rewrites only a quarter of its
 * register planes on the reference workloads, so a snapshot stores
 * its warps' registers as indices into this store: a plane written
 * since the warp's previous capture is appended, an unchanged one is
 * referenced again (arch::WarpContext::takeWritten says which). A
 * rung then costs the planes its interval wrote, not the whole
 * register file. Append-only while capturing; compact() drops planes
 * no surviving snapshot references. Read-only (and so shareable
 * across threads) once capture ends.
 */

#ifndef WARPED_SM_PLANE_STORE_HH
#define WARPED_SM_PLANE_STORE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace warped {
namespace sm {

class PlaneStore
{
  public:
    /** @param ws values per plane (the warp size) */
    explicit PlaneStore(unsigned ws) : ws_(ws) {}

    /** Append a copy of the @p ws-value plane at @p plane. */
    std::uint32_t
    add(const RegValue *plane)
    {
        // Fixed-size chunks: growing never moves stored planes.
        const std::uint32_t at = count_ % kChunkPlanes;
        if (at == 0)
            chunks_.push_back(std::make_unique_for_overwrite<RegValue[]>(
                std::size_t{kChunkPlanes} * ws_));
        std::copy_n(plane, ws_,
                    chunks_.back().get() + std::size_t{at} * ws_);
        return count_++;
    }

    const RegValue *
    plane(std::uint32_t idx) const
    {
        return chunks_[idx / kChunkPlanes].get() +
               std::size_t{idx % kChunkPlanes} * ws_;
    }

    /** Bumped by compact(): plane indices handed out earlier are only
     *  meaningful in the index lists compact() rewrote. */
    std::uint64_t generation() const { return generation_; }

    std::size_t
    bytes() const
    {
        return sizeof(*this) + std::size_t{count_} * ws_ * sizeof(RegValue);
    }

    /** Keep only the planes @p lists reference, renumbering them in
     *  place in every list. */
    void
    compact(const std::vector<std::vector<std::uint32_t> *> &lists)
    {
        std::vector<std::uint32_t> remap(count_, kDead);
        PlaneStore kept(ws_);
        for (auto *list : lists) {
            for (std::uint32_t &idx : *list) {
                if (remap[idx] == kDead)
                    remap[idx] = kept.add(plane(idx));
                idx = remap[idx];
            }
        }
        chunks_ = std::move(kept.chunks_);
        count_ = kept.count_;
        ++generation_;
    }

  private:
    static constexpr std::uint32_t kChunkPlanes = 512;
    static constexpr std::uint32_t kDead = ~std::uint32_t{0};

    unsigned ws_;
    std::vector<std::unique_ptr<RegValue[]>> chunks_;
    std::uint32_t count_ = 0;
    std::uint64_t generation_ = 0;
};

} // namespace sm
} // namespace warped

#endif // WARPED_SM_PLANE_STORE_HH
