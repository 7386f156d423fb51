/**
 * @file
 * fault::StratifiedSpace — stratified sampling over a FaultSiteSpace.
 *
 * Uniform i.i.d. sampling answers a 1M-site question with a sample
 * whose Wilson interval shrinks as 1/sqrt(n) regardless of structure.
 * But campaign outcomes are strongly structured: detection behaves
 * very differently per execution unit and across the kernel's
 * lifetime (late-window transients are mostly masked, early-window
 * ones mostly detected). Stratified sampling exploits that structure:
 * partition the site space into strata, allocate the sample budget
 * proportionally to stratum size, sample uniformly *within* each
 * stratum, and combine per-stratum proportions with population
 * weights (stats::StratifiedEstimator). Proportional allocation is
 * never worse than uniform sampling in expectation, guarantees every
 * stratum is observed, and yields per-stratum Wilson intervals for
 * free.
 *
 * Strata (the ISSUE-9 "unit x window" grid):
 *  - one stratum per (unit-axis entry, transient window bucket) for
 *    the transient kinds — window bucket t of T covers pulse windows
 *    [t*W/T, (t+1)*W/T);
 *  - one "perm" stratum per unit-axis entry for the stuck-at kinds
 *    (they have no window axis);
 *  - one stratum per window bucket for the appended memory-cell
 *    block ("mem.wNN").
 *
 * Each stratum's site set is a union of at most a few *blocks* —
 * arithmetic lattices { base + outer*stride + inner : outer <
 * outerCount, inner < innerCount } — so membership, size, and the
 * r-th element are all O(1); the decoder never materializes site
 * lists and the 1M-site space costs a few hundred bytes.
 *
 * Determinism contract: the stratum layout and allocation are pure
 * functions of (SiteSpaceConfig, span, windowBuckets, totalRuns);
 * the site drawn for campaign run j is a pure function of (master
 * seed, j) exactly like FaultSiteSpace::sampleIndex — independent of
 * worker count, shard count, and execution order.
 */

#ifndef WARPED_FAULT_STRATIFIED_HH
#define WARPED_FAULT_STRATIFIED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/site_space.hh"

namespace warped {
namespace fault {

class StratifiedSpace
{
  public:
    /** An arithmetic lattice of site indices (see file comment). */
    struct Block
    {
        std::uint64_t base = 0;
        std::uint64_t stride = 1;
        std::uint64_t innerCount = 1;
        std::uint64_t outerCount = 0;

        std::uint64_t size() const { return innerCount * outerCount; }

        /** The r-th site of the lattice, r < size(). */
        std::uint64_t
        at(std::uint64_t r) const
        {
            return base + (r / innerCount) * stride + r % innerCount;
        }
    };

    struct Stratum
    {
        std::string label;
        std::vector<Block> blocks;
        std::uint64_t size = 0;
    };

    /**
     * @param space          the fully resolved site space
     * @param window_buckets transient window buckets per unit (T in
     *                       the file comment); clamped to >= 1
     */
    StratifiedSpace(const FaultSiteSpace &space,
                    unsigned window_buckets);

    std::size_t strata() const { return strata_.size(); }
    const Stratum &stratum(std::size_t h) const;

    /** Stable per-stratum labels, in stratum order. */
    std::vector<std::string> labels() const;

    /** Population sizes N_h, in stratum order (some may be 0 when
     *  the space has fewer windows than buckets). */
    std::vector<std::uint64_t> sizes() const;

    /**
     * Fix the run->stratum layout for a campaign of @p total_runs:
     * proportional largest-remainder allocation, runs laid out
     * stratum-by-stratum (runs [0, n_0) in stratum 0, the next n_1
     * in stratum 1, ...). Must be called before the run queries.
     */
    void allocate(std::uint64_t total_runs);

    /** Samples allocated to stratum @p h (after allocate()). */
    std::uint64_t allocated(std::size_t h) const;

    /** The stratum campaign run @p run_index belongs to. */
    std::size_t stratumOfRun(std::uint64_t run_index) const;

    /**
     * The site sampled for run @p run_index under master seed
     * @p seed: a uniform draw within the run's stratum from a private
     * per-run generator (deriveSeed) — i.i.d. within the stratum,
     * order- and shard-count-free.
     */
    std::uint64_t siteForRun(std::uint64_t seed,
                             std::uint64_t run_index) const;

  private:
    std::vector<Stratum> strata_;
    unsigned buckets_ = 1;
    std::vector<std::uint64_t> allocPrefix_; ///< size strata()+1
};

} // namespace fault
} // namespace warped

#endif // WARPED_FAULT_STRATIFIED_HH
