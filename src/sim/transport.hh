/**
 * @file
 * sim::SubprocessTransport — how `warped_sim serve` gets one shard
 * executed.
 *
 * The campaign orchestrator dispatches shard indices over a
 * ShardQueue; the transport turns one index into one delta document
 * by fork/exec'ing `warped_sim shard ...` and reading the delta file
 * it leaves behind. A per-shard deadline makes a *hung* child trip
 * re-issue instead of stalling the orchestrator forever.
 *
 * Deltas travel as opaque JSON text: the transport carries bytes,
 * fault::ShardDelta::fromJson validates them, and the aggregator's
 * idempotent fold absorbs duplicate deliveries. The final report is
 * therefore byte-identical at any worker count and failure schedule.
 *
 * Result statuses map onto the dispatcher contract: Delivered folds
 * and acks; Failed re-issues (3-strike cap); Reject is permanent (the
 * exit-3 signature-mismatch path).
 */

#ifndef WARPED_SIM_TRANSPORT_HH
#define WARPED_SIM_TRANSPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace warped {
namespace sim {

/** "No shard" sentinel for the drill knobs. */
constexpr std::uint64_t kNoShard = ~std::uint64_t{0};

struct TransportResult
{
    enum class Status
    {
        /** A delta document arrived; deltaJson holds it. */
        Delivered,
        /** The worker died, hung, or delivered garbage — re-issue. */
        Failed,
        /** The worker permanently refused (signature mismatch, the
         *  exit-3 contract) — retrying cannot help. */
        Reject,
    };
    Status status = Status::Failed;
    std::string deltaJson;
    std::string diag;
};

struct SubprocessTransportConfig
{
    /** Worker command prefix: exe, "shard", workload, campaign
     *  flags. The transport appends --shard-index/--shard-count/
     *  --expect-signature/--delta-out (and drill flags). */
    std::vector<std::string> workerArgv;
    /** Delta files are written to `<prefix>.shard<I>.json`. */
    std::string deltaPrefix = "warped_serve";
    std::uint64_t shardCount = 0;
    std::uint64_t signature = 0;
    /** Per-shard wall-clock deadline; 0 = unbounded. A child that
     *  blows it is SIGKILLed and the shard fails back for re-issue
     *  (a wedged worker must not stall the orchestrator). */
    std::uint64_t deadlineMs = 0;
    /** Drill: SIGKILL this shard's worker on its first attempt. */
    std::uint64_t killShard = kNoShard;
    /** Drill: make this shard's first worker hang (the child gets
     *  --hang-for-shard and sleeps hangMs instead of computing). */
    std::uint64_t hangShard = kNoShard;
    std::uint64_t hangMs = 30000;
};

class SubprocessTransport
{
  public:
    explicit SubprocessTransport(SubprocessTransportConfig cfg);

    /**
     * Execute shard @p shard (attempt @p attempt, 1-based) and
     * return its outcome. Blocks; thread-safe — the orchestrator
     * calls it from several dispatcher threads at once.
     */
    TransportResult runShard(std::uint64_t shard, unsigned attempt);

  private:
    SubprocessTransportConfig cfg_;
};

} // namespace sim
} // namespace warped

#endif // WARPED_SIM_TRANSPORT_HH
