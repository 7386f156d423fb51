/**
 * @file
 * fault::ShardAggregator and friends — the library shard protocol.
 *
 * A campaign of N planned runs is split into contiguous run-index
 * shards (planShards). Any process that holds the same EngineConfig
 * derives the identical plan (CampaignEngine::prepare is a pure
 * function of the configuration, and the configuration signature
 * proves the derivation matched), runs its shard's range
 * (CampaignEngine::runRange) and serializes the resulting delta
 * report as a ShardDelta — a flat counter document with a header and
 * an integrity fingerprint. A campaign checkpoint is the delta of runs
 * [0, sampled), so checkpoints are written and read in this format
 * too.
 *
 * The orchestrator folds deltas into a ShardAggregator in ANY order:
 * every campaign statistic is an associative counter sum, so the
 * aggregate is a pure function of the *set* of folded shards —
 * independent of worker count, arrival order, duplicate deliveries
 * (idempotent fold) and failure schedule (a died worker's shard is
 * simply run again; the re-issued delta is bit-identical because the
 * site drawn for run i is a pure function of (seed, i)). When every
 * shard has been folded, report() reconstructs the CampaignReport
 * from the summed counters exactly as the checkpoint loader does, so
 * the final JSON is byte-identical to a single-process run.
 *
 * A delta carries CampaignReport::counters() only, every key of which
 * sums; the configuration echo (span, space size, scheme, stratum
 * sizes) is rendered from the orchestrator's own skeleton.
 */

#ifndef WARPED_FAULT_SHARD_HH
#define WARPED_FAULT_SHARD_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/campaign_engine.hh"

namespace warped {
namespace fault {

/** A malformed, torn, or mismatched shard delta. */
struct ShardError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** One shard's contiguous run-index range. */
struct ShardPlan
{
    std::uint64_t index = 0;
    std::uint64_t base = 0;
    std::uint64_t count = 0;
};

/**
 * Split @p total_runs into @p shard_count contiguous ranges: the
 * first (total % count) shards get one extra run. Deterministic —
 * every process that calls this with the same arguments sees the
 * same ranges. Shards beyond total_runs come back with count 0 (they
 * still exist, so the aggregator's completion test stays a simple
 * per-index bitmap).
 */
std::vector<ShardPlan> planShards(std::uint64_t total_runs,
                                  std::uint64_t shard_count);

/** Serialized outcome of one shard: header + delta counters. */
struct ShardDelta
{
    std::uint64_t shard = 0;
    std::uint64_t base = 0;
    std::uint64_t count = 0;
    /** CampaignEngine::signature() of the producing worker; the
     *  aggregator refuses a delta from a different configuration. */
    std::uint64_t signature = 0;
    /** The delta report's additive counts
     *  (CampaignReport::counters). */
    std::map<std::string, std::uint64_t> counters;

    /** Flat JSON document: shard.* header keys (version, indices,
     *  signature, payload fingerprint) followed by the counters. */
    std::string toJson() const;

    /** Parse and validate a toJson document.
     *  @throws ShardVersionError on a missing or different version
     *  header; ShardError on an oversized or torn document, a runaway
     *  key, a corrupt header or a failed fingerprint. */
    static ShardDelta fromJson(const std::string &text);
};

/** A document that is not a current-version delta (say, a counter
 *  document of an older format): stale rather than damaged. */
struct ShardVersionError : ShardError
{
    using ShardError::ShardError;
};

/** Run shard @p plan of the campaign in this process with a fresh
 *  engine and package the delta (the library-level worker). */
ShardDelta runShardInProcess(const WorkloadFactory &factory,
                             const EngineConfig &cfg,
                             const ShardPlan &plan);

class ShardAggregator
{
  public:
    /**
     * @param skeleton    the orchestrator's CampaignEngine::skeleton()
     * @param signature   the orchestrator's configuration signature
     * @param total_runs  planned campaign runs
     * @param shard_count shards the campaign was split into
     */
    ShardAggregator(CampaignReport skeleton, std::uint64_t signature,
                    std::uint64_t total_runs,
                    std::uint64_t shard_count);

    /**
     * Fold one delta. Duplicate deliveries of an already-folded
     * shard are ignored (returns false) — re-issue after a worker
     * death can legitimately double-deliver.
     * @throws ShardError on a signature mismatch, an out-of-range
     *         shard index, or a range that disagrees with the plan.
     */
    bool fold(const ShardDelta &d);

    bool has(std::uint64_t shard) const;
    bool complete() const { return folded_ == shardCount_; }

    /** The reconstructed campaign report.
     *  @throws ShardError unless complete(). */
    CampaignReport report() const;

  private:
    CampaignReport skel_;
    std::uint64_t signature_ = 0;
    std::uint64_t shardCount_ = 0;
    std::uint64_t folded_ = 0;
    std::vector<ShardPlan> plan_;
    std::vector<bool> have_;
    std::map<std::string, std::uint64_t> sum_;
};

} // namespace fault
} // namespace warped

#endif // WARPED_FAULT_SHARD_HH
