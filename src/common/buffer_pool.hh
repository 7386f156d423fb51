/**
 * @file
 * Thread-local recycling pool for large, lazily zeroed byte buffers.
 *
 * Fresh launches (`sim_ref`, the figure sweeps) construct one
 * `mem::Memory` (8 MB of global memory for the reference workloads)
 * per launch; fault campaigns construct one per resident machine
 * pair. Fresh buffers come from
 * zero pages: large ones are anonymous `mmap` mappings and the
 * allocator's value-initialising construct writes nothing, so a page
 * becomes resident only when the simulation first writes it — a
 * kernel that touches 40 KB of an 8 MB memory costs 40 KB of RSS, not
 * 8 MB. Letting the allocator hand buffers back to the kernel between
 * launches would still cost an mmap/munmap pair plus a soft page
 * fault per written page, every launch, so the pool keeps a handful
 * of retired buffers per thread and re-zeroes on reuse only the span
 * the previous owner wrote: steady-state campaign launches touch only
 * warm pages and pay for their footprint, not for the whole buffer.
 *
 * Thread-local on purpose: campaign runners fan launches out across
 * worker threads (`--jobs N`), and a per-thread free list needs no
 * locking and never migrates pages between cores.
 */

#ifndef WARPED_COMMON_BUFFER_POOL_HH
#define WARPED_COMMON_BUFFER_POOL_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace warped {
namespace common {

/** Zero-filled storage of @p bytes: an anonymous mapping for large
 *  sizes (pages materialise on first write), calloc otherwise. */
void *allocateZeroed(std::size_t bytes);
/** Release storage from allocateZeroed(@p bytes). */
void releaseZeroed(void *p, std::size_t bytes) noexcept;

/**
 * Allocator whose storage starts out zero and whose value-initialising
 * construct is a no-op, so `ZeroedBuffer(n)` writes no byte and
 * faults in no page. Only for trivial element types, whose value
 * initialisation is all-zero bytes.
 */
template <class T>
struct ZeroPageAllocator
{
    static_assert(std::is_trivial_v<T>);
    using value_type = T;

    ZeroPageAllocator() = default;
    template <class U>
    ZeroPageAllocator(const ZeroPageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(allocateZeroed(n * sizeof(T)));
    }
    void
    deallocate(T *p, std::size_t n) noexcept
    {
        releaseZeroed(p, n * sizeof(T));
    }

    /** Value initialisation: the storage is already zero. */
    template <class U>
    void
    construct(U *) noexcept
    {
    }
    template <class U, class... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <class U>
    bool
    operator==(const ZeroPageAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** The byte buffer type the pool hands out. */
using ZeroedBuffer =
    std::vector<std::uint8_t, ZeroPageAllocator<std::uint8_t>>;

/**
 * Get a zeroed buffer of exactly @p bytes. Served from this thread's
 * pool when a retired buffer of the same size is available (re-zeroed
 * before return), freshly allocated from zero pages otherwise.
 */
ZeroedBuffer acquireBuffer(std::size_t bytes);

/**
 * Retire @p buf to this thread's pool for a later acquireBuffer of
 * the same size. The caller vouches that every byte outside
 * [@p dirty_lo, @p dirty_hi) is still zero (an empty span when
 * dirty_lo >= dirty_hi), so reuse re-zeroes only that span. Buffers
 * below the pooling threshold, and any beyond the per-thread
 * retention cap, are simply freed. Safe to call with a moved-from
 * (empty) vector.
 */
void releaseBuffer(ZeroedBuffer &&buf, std::size_t dirty_lo,
                   std::size_t dirty_hi);

} // namespace common
} // namespace warped

#endif // WARPED_COMMON_BUFFER_POOL_HH
