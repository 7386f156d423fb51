/**
 * @file
 * Bounded per-SM store of architectural checkpoint deltas.
 *
 * One Delta is captured per issued instruction while its DMR
 * verification is outstanding: the minimal state needed to restore
 * the warp to the point *before* that instruction executed (pre-exec
 * SIMT stack, exit/barrier flags, overwritten destination registers,
 * and memory-word undo entries for stores). Deltas for one warp form
 * an ordered chain (by launch-unique traceId); a rollback restores
 * the anchor delta's pre-state after undoing every younger delta in
 * reverse order.
 *
 * The ring is bounded: pushing past capacity evicts the oldest delta
 * of the longest chain. An evicted delta can no longer anchor a
 * rollback — a later mismatch on it degrades to a structured
 * give-up, never to corruption.
 */

#ifndef WARPED_RECOVERY_CHECKPOINT_RING_HH
#define WARPED_RECOVERY_CHECKPOINT_RING_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "arch/simt_stack.hh"
#include "common/lane_mask.hh"
#include "common/types.hh"
#include "func/executor.hh"

namespace warped {
namespace recovery {

/** Undo record for one issued instruction of one warp. */
struct Delta
{
    std::uint64_t traceId = 0; ///< launch-unique issue id (anchor key)
    Pc pc = 0;
    Cycle cycle = 0;           ///< issue cycle (trace events)

    arch::SimtStack preStack;  ///< SIMT stack before execution
    LaneMask active;           ///< mask the instruction executed under
    LaneMask preExited;
    bool preAtBarrier = false;

    /** Verified clean (or will never be verified): safe to discard. */
    bool cleared = false;

    bool hasDst = false;
    RegIndex dstReg = 0;
    /** Old dst values for the active slots (indexed by slot). */
    std::array<RegValue, func::kMaxWarp> oldDst{};

    /** Old memory words clobbered by a store, in write order. */
    std::vector<func::MemUndo> memUndo;
};

class CheckpointRing
{
  public:
    CheckpointRing(unsigned num_warps, unsigned capacity)
        : chains_(num_warps), capacity_(capacity ? capacity : 1)
    {
    }

    /**
     * Append a fresh delta to @p warp's chain, evicting the oldest
     * delta of the longest chain first when the ring is full.
     * @return the staged delta (valid until the next push/pop) and
     *         whether an eviction happened.
     */
    Delta &
    push(unsigned warp, bool &evicted)
    {
        evicted = false;
        if (total_ >= capacity_) {
            evictOldest();
            evicted = true;
        }
        chains_[warp].emplace_back();
        ++total_;
        return chains_[warp].back();
    }

    std::deque<Delta> &chain(unsigned warp) { return chains_[warp]; }
    const std::deque<Delta> &
    chain(unsigned warp) const
    {
        return chains_[warp];
    }

    /** Drop cleared deltas from the front of @p warp's chain. */
    void
    popCleared(unsigned warp)
    {
        auto &c = chains_[warp];
        while (!c.empty() && c.front().cleared) {
            c.pop_front();
            --total_;
        }
    }

    /**
     * Erase the back of @p warp's chain starting at index @p from
     * (inclusive) — used after a rollback restored the anchor.
     */
    void
    trimFrom(unsigned warp, std::size_t from)
    {
        auto &c = chains_[warp];
        while (c.size() > from) {
            c.pop_back();
            --total_;
        }
    }

    /** Drop the whole chain (give-up path). */
    void
    dropChain(unsigned warp)
    {
        total_ -= chains_[warp].size();
        chains_[warp].clear();
    }

    /** Does @p warp have any not-yet-cleared delta outstanding? */
    bool
    hasUnverified(unsigned warp) const
    {
        for (const Delta &d : chains_[warp])
            if (!d.cleared)
                return true;
        return false;
    }

    std::size_t totalSize() const { return total_; }

    /** Visit every memory-undo entry, chains in warp order and each
     *  chain oldest first — a fixed order, so a copied ring can
     *  re-point its entries at its own memories (snapshot restore). */
    template <class F>
    void
    forEachUndo(F &&f)
    {
        for (auto &c : chains_)
            for (Delta &d : c)
                for (func::MemUndo &u : d.memUndo)
                    f(u);
    }
    template <class F>
    void
    forEachUndo(F &&f) const
    {
        for (const auto &c : chains_)
            for (const Delta &d : c)
                for (const func::MemUndo &u : d.memUndo)
                    f(u);
    }

    /** Heap and inline bytes held (snapshot budgeting). */
    std::size_t
    bytes() const
    {
        std::size_t n = sizeof(*this) + chains_.size() * sizeof(chains_[0]);
        for (const auto &c : chains_)
            for (const Delta &d : c)
                n += sizeof(Delta) +
                     d.memUndo.size() * sizeof(func::MemUndo);
        return n;
    }

  private:
    void
    evictOldest()
    {
        // Deterministic policy: shrink the longest chain (ties go to
        // the lowest warp id) by dropping its front — the delta least
        // likely to still be needed as an anchor.
        std::size_t victim = 0, best = 0;
        for (std::size_t w = 0; w < chains_.size(); ++w) {
            if (chains_[w].size() > best) {
                best = chains_[w].size();
                victim = w;
            }
        }
        if (best == 0)
            return;
        chains_[victim].pop_front();
        --total_;
    }

    std::vector<std::deque<Delta>> chains_;
    std::size_t capacity_;
    std::size_t total_ = 0;
};

} // namespace recovery
} // namespace warped

#endif // WARPED_RECOVERY_CHECKPOINT_RING_HH
