/**
 * @file
 * RAW-dependency distance tracking (Fig 8b).
 *
 * The paper samples, for the registers of one tracked thread, the
 * number of cycles between a register write and the next read of that
 * register, and plots the (log-scale) distribution.
 */

#ifndef WARPED_STATS_DISTANCE_HH
#define WARPED_STATS_DISTANCE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hh"

namespace warped {
namespace stats {

/**
 * Tracks write→first-read cycle distances per register of one thread.
 */
class RawDistanceTracker
{
  public:
    explicit RawDistanceTracker(unsigned n_registers);

    /** Record a register write at @p now. */
    void onWrite(unsigned reg, Cycle now);

    /** Record a register read at @p now. */
    void onRead(unsigned reg, Cycle now);

    /** All collected distances, unordered. */
    const std::vector<std::uint64_t> &samples() const { return samples_; }

    /** Distances sorted descending — the paper's Fig 8b series shape. */
    std::vector<std::uint64_t> sortedDescending() const;

    /** Fraction of samples with distance strictly greater than @p d. */
    double fractionAbove(std::uint64_t d) const;

    std::uint64_t minDistance() const;

    /** Heap bytes held: the samples and the per-register pending
     *  writes. */
    std::size_t
    bytes() const
    {
        return samples_.size() * sizeof(std::uint64_t) +
               pending_.size() * sizeof(PendingWrite);
    }

  private:
    struct PendingWrite
    {
        Cycle when = 0;
        bool awaitingRead = false;
    };

    std::vector<PendingWrite> pending_;
    std::vector<std::uint64_t> samples_;
};

} // namespace stats
} // namespace warped

#endif // WARPED_STATS_DISTANCE_HH
