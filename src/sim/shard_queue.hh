/**
 * @file
 * sim::ShardQueue — a thread-safe work queue with failure re-issue.
 *
 * The campaign orchestrator's dispatch core: worker threads acquire()
 * shard indices, hand them to the subprocess transport, then either
 * ack() the shard — done forever — or fail() it, which puts it back
 * on the queue for any worker to pick up again. acquire() blocks
 * while the queue is empty but work is still outstanding (a failed
 * shard may be about to come back), and returns nullopt only when
 * every shard has been acknowledged — the natural shutdown signal
 * for a worker loop.
 *
 * The queue carries indices, not results, so "a worker died" costs
 * exactly one fail()/re-acquire() round trip and nothing else: shard
 * results are deterministic (see fault/shard.hh), so re-running a
 * shard reproduces the identical delta and the failure schedule
 * cannot perturb the final report.
 */

#ifndef WARPED_SIM_SHARD_QUEUE_HH
#define WARPED_SIM_SHARD_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace warped {
namespace sim {

class ShardQueue
{
  public:
    /** @param pending the shard indices still to run (ascending or
     *  not — dispatch order is FIFO over this list). */
    explicit ShardQueue(std::vector<std::uint64_t> pending);

    /**
     * Next shard to run. Blocks while the queue is drained but
     * issued shards are unacknowledged; nullopt once all work is
     * acknowledged.
     */
    std::optional<std::uint64_t> acquire();

    /** The shard completed; it will never be issued again. */
    void ack(std::uint64_t shard);

    /** The shard's worker died (or its delta was rejected); requeue
     *  it for re-issue. */
    void fail(std::uint64_t shard);

    /** All shards acknowledged. */
    bool done() const;

    /** Total fail() calls — the observed worker-death count. */
    std::uint64_t failures() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::uint64_t> pending_;
    std::uint64_t outstanding_ = 0;
    std::uint64_t remaining_ = 0;
    std::uint64_t failures_ = 0;
};

} // namespace sim
} // namespace warped

#endif // WARPED_SIM_SHARD_QUEUE_HH
