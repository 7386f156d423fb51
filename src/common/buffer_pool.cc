#include "common/buffer_pool.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
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
    ZeroedBuffer buf;
    std::size_t dirtyLo;
    std::size_t dirtyHi;
};

thread_local std::vector<Retired> pool;

} // namespace

void *
allocateZeroed(std::size_t bytes)
{
    if (bytes >= kMinPooledBytes) {
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return p;
    }
    void *p = std::calloc(bytes ? bytes : 1, 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void
releaseZeroed(void *p, std::size_t bytes) noexcept
{
    if (!p)
        return;
    if (bytes >= kMinPooledBytes)
        ::munmap(p, bytes);
    else
        std::free(p);
}

ZeroedBuffer
acquireBuffer(std::size_t bytes)
{
    if (bytes >= kMinPooledBytes) {
        for (auto it = pool.begin(); it != pool.end(); ++it) {
            if (it->buf.size() == bytes) {
                ZeroedBuffer buf = std::move(it->buf);
                const std::size_t lo = it->dirtyLo;
                const std::size_t hi = std::min(it->dirtyHi, bytes);
                pool.erase(it);
                if (lo < hi)
                    std::memset(buf.data() + lo, 0, hi - lo);
                return buf;
            }
        }
    }
    return ZeroedBuffer(bytes);
}

void
releaseBuffer(ZeroedBuffer &&buf, std::size_t dirty_lo,
              std::size_t dirty_hi)
{
    if (buf.size() < kMinPooledBytes || pool.size() >= kMaxPooledBuffers)
        return; // freed by the vector's own destructor
    pool.push_back({std::move(buf), dirty_lo, dirty_hi});
}

} // namespace common
} // namespace warped
