/**
 * @file
 * Thread-local recycling pool for large byte buffers.
 *
 * Fault campaigns construct one `mem::Memory` (8 MB of global memory
 * for the reference workloads) per launch; letting the allocator hand
 * those pages back to the kernel between launches costs an
 * mmap/munmap pair plus ~2k soft page faults per 8 MB buffer, every
 * launch. The pool keeps a handful of retired buffers per thread and
 * re-zeroes on reuse only the span the previous owner wrote, so
 * steady-state campaign launches touch only warm pages and pay for
 * their footprint, not for the whole buffer.
 *
 * Thread-local on purpose: campaign runners fan launches out across
 * worker threads (`--jobs N`), and a per-thread free list needs no
 * locking and never migrates pages between cores.
 */

#ifndef WARPED_COMMON_BUFFER_POOL_HH
#define WARPED_COMMON_BUFFER_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace warped {
namespace common {

/**
 * Get a zeroed buffer of exactly @p bytes. Served from this thread's
 * pool when a retired buffer of the same size is available (re-zeroed
 * before return), freshly allocated otherwise.
 */
std::vector<std::uint8_t> acquireBuffer(std::size_t bytes);

/**
 * Retire @p buf to this thread's pool for a later acquireBuffer of
 * the same size. The caller vouches that every byte outside
 * [@p dirty_lo, @p dirty_hi) is still zero (an empty span when
 * dirty_lo >= dirty_hi), so reuse re-zeroes only that span. Buffers
 * below the pooling threshold, and any beyond the per-thread
 * retention cap, are simply freed. Safe to call with a moved-from
 * (empty) vector.
 */
void releaseBuffer(std::vector<std::uint8_t> &&buf, std::size_t dirty_lo,
                   std::size_t dirty_hi);

} // namespace common
} // namespace warped

#endif // WARPED_COMMON_BUFFER_POOL_HH
