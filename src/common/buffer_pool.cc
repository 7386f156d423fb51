#include "common/buffer_pool.hh"

#include <algorithm>
#include <cstring>
#include <utility>

namespace warped {
namespace common {

namespace {

/** Buffers smaller than this are cheaper to reallocate than to pool
 *  (shared-memory segments are recycled in place by the SM anyway). */
constexpr std::size_t kMinPooledBytes = 1 << 16;

/** Retired buffers kept per thread. A campaign worker holds one
 *  global memory plus a few workload staging buffers at a time, so a
 *  short list covers the steady state without hoarding address
 *  space. */
constexpr std::size_t kMaxPooledBuffers = 4;

/** A retired buffer: zero everywhere outside [dirtyLo, dirtyHi). */
struct Retired
{
    std::vector<std::uint8_t> buf;
    std::size_t dirtyLo;
    std::size_t dirtyHi;
};

thread_local std::vector<Retired> pool;

} // namespace

std::vector<std::uint8_t>
acquireBuffer(std::size_t bytes)
{
    if (bytes >= kMinPooledBytes) {
        for (auto it = pool.begin(); it != pool.end(); ++it) {
            if (it->buf.size() == bytes) {
                std::vector<std::uint8_t> buf = std::move(it->buf);
                const std::size_t lo = it->dirtyLo;
                const std::size_t hi = std::min(it->dirtyHi, bytes);
                pool.erase(it);
                if (lo < hi)
                    std::memset(buf.data() + lo, 0, hi - lo);
                return buf;
            }
        }
    }
    return std::vector<std::uint8_t>(bytes, 0);
}

void
releaseBuffer(std::vector<std::uint8_t> &&buf, std::size_t dirty_lo,
              std::size_t dirty_hi)
{
    if (buf.size() < kMinPooledBytes || pool.size() >= kMaxPooledBuffers)
        return; // freed by the vector's own destructor
    pool.push_back({std::move(buf), dirty_lo, dirty_hi});
}

} // namespace common
} // namespace warped
