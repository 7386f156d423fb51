#include "mem/memory_system.hh"

#include <algorithm>
#include <limits>

namespace warped {
namespace mem {

namespace {

/// s_.openRow sentinel: bank has no row open yet (first touch misses).
constexpr Addr kNoRow = std::numeric_limits<Addr>::max();

} // namespace

MemorySystem::MemorySystem(const arch::GpuConfig &cfg)
    : cfg_(cfg)
{
    s_.partitionFreeAt.assign(std::max(1u, cfg.memoryPartitions), 0);
    if (cfg.memModel == arch::MemModel::Banked) {
        s_.bankFreeAt.assign(std::max(1u, cfg.memBanks), 0);
        s_.openRow.assign(s_.bankFreeAt.size(), kNoRow);
    }
}

Cycle
MemorySystem::access(Cycle now, std::span<const Addr> segments)
{
    if (cfg_.memModel == arch::MemModel::Banked)
        return accessBanked(now, segments);
    Cycle done = now + cfg_.globalMemLatency;
    for (const Addr seg : segments) {
        const std::size_t p = seg % s_.partitionFreeAt.size();
        const Cycle start = std::max(now, s_.partitionFreeAt[p]);
        s_.partitionFreeAt[p] = start + cfg_.memoryServicePeriod;
        const Cycle resp = start + cfg_.globalMemLatency;
        s_.queueing += start - now;
        ++s_.transactions;
        done = std::max(done, resp);
    }
    return done;
}

Cycle
MemorySystem::accessBanked(Cycle now, std::span<const Addr> segments)
{
    // Segments interleave across banks low-order first (adjacent
    // segments hit adjacent banks — the usual DRAM interleave), and
    // a bank's row index advances once per full sweep of all banks
    // times the segments-per-row ratio.
    const Addr banks = s_.bankFreeAt.size();
    const Addr segs_per_row =
        std::max<Addr>(1, cfg_.memRowBytes / cfg_.coalesceSegmentBytes);
    Cycle done = now + cfg_.globalMemLatency;
    for (const Addr seg : segments) {
        const std::size_t b = static_cast<std::size_t>(seg % banks);
        const Addr row = seg / banks / segs_per_row;
        const Cycle start = std::max(now, s_.bankFreeAt[b]);
        Cycle latency = cfg_.globalMemLatency;
        if (s_.openRow[b] == row) {
            ++s_.rowHits;
        } else {
            ++s_.rowMisses;
            latency += cfg_.memRowMissPenalty;
            s_.openRow[b] = row;
        }
        s_.bankFreeAt[b] = start + cfg_.memoryServicePeriod;
        s_.queueing += start - now;
        ++s_.transactions;
        done = std::max(done, start + latency);
    }
    return done;
}

} // namespace mem
} // namespace warped
