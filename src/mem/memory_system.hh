/**
 * @file
 * Chip-level global-memory timing: partition queueing and, with
 * GpuConfig::memModel == Banked, DRAM bank/row structure.
 *
 * The baseline model (and the paper's) charges every global access a
 * fixed latency. With GpuConfig::modelMemContention the chip instead
 * owns one MemorySystem shared by all SMs: transactions are
 * interleaved across partitions by segment address, each partition
 * services one transaction per service period, and a warp access
 * completes when its slowest transaction is serviced — so
 * bandwidth-bound kernels see queueing delay on top of the DRAM
 * latency. The Banked model refines the partition into memBanks
 * open-row banks: consecutive segments interleave across banks, each
 * bank keeps one row open, and a transaction landing on a different
 * row pays memRowMissPenalty extra cycles (precharge + activate), so
 * strided kernels trade row locality for bank parallelism.
 * Everything is computed at issue time (deterministic look-ahead),
 * which keeps the functional-first pipeline intact.
 */

#ifndef WARPED_MEM_MEMORY_SYSTEM_HH
#define WARPED_MEM_MEMORY_SYSTEM_HH

#include <span>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/types.hh"

namespace warped {
namespace mem {

/** Chip-shared global-memory timing model (see the file comment for
 *  the partition/bank semantics). One instance per Gpu. */
class MemorySystem
{
  public:
    /** @param cfg machine description; must outlive the system. */
    explicit MemorySystem(const arch::GpuConfig &cfg);

    /**
     * Schedule one warp's global transactions.
     *
     * @param now       issue cycle
     * @param segments  distinct segment addresses the warp touches,
     *                  in ascending order
     * @return cycle at which the last transaction's data is back
     */
    Cycle access(Cycle now, std::span<const Addr> segments);

    std::uint64_t transactions() const { return s_.transactions; }
    /** Total queueing delay accumulated beyond the raw latency. */
    std::uint64_t queueingCycles() const { return s_.queueing; }
    /** Banked model only: transactions hitting the bank's open row. */
    std::uint64_t rowHits() const { return s_.rowHits; }
    /** Banked model only: transactions that switched the open row. */
    std::uint64_t rowMisses() const { return s_.rowMisses; }

    /** Everything access() reads or writes: the partition and bank
     *  timing plus the counters (snapshot support). */
    struct State
    {
        std::vector<Cycle> partitionFreeAt;
        std::vector<Cycle> bankFreeAt; ///< Banked model
        std::vector<Addr> openRow;     ///< Banked: row open per bank
        std::uint64_t transactions = 0;
        std::uint64_t queueing = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
    };
    const State &state() const { return s_; }
    /** Resume from @p s, saved by a system on the same config. */
    void restoreState(const State &s) { s_ = s; }

  private:
    Cycle accessBanked(Cycle now, std::span<const Addr> segments);

    const arch::GpuConfig &cfg_;
    State s_;
};

} // namespace mem
} // namespace warped

#endif // WARPED_MEM_MEMORY_SYSTEM_HH
