/**
 * @file
 * Simulated memories.
 *
 * Following the paper's fault model (§1), memory is assumed to be
 * ECC-protected and therefore always returns correct data; only the
 * *address computation* of memory instructions is subject to (and
 * verified against) errors. Consequently no cache hierarchy is
 * modeled — LD/ST timing uses fixed shared/global latencies from
 * GpuConfig.
 */

#ifndef WARPED_MEM_MEMORY_HH
#define WARPED_MEM_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace warped {
namespace mem {

class MemFaultPlane;

/** Zero-filled storage of @p bytes: an anonymous mapping for large
 *  sizes (pages materialise on first write), calloc otherwise. */
void *allocateZeroed(std::size_t bytes);
/** Release storage from allocateZeroed(@p bytes). */
void releaseZeroed(void *p, std::size_t bytes) noexcept;

/**
 * Allocator whose storage starts out zero and whose value-initialising
 * construct is a no-op, so a vector of n elements writes no byte
 * and faults in no page: a kernel that touches 40 KB of an 8 MB
 * global memory costs 40 KB of RSS, not 8 MB. Only for trivial
 * element types, whose value initialisation is all-zero bytes.
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

/**
 * A flat, byte-addressable, bounds-checked memory. Used both for the
 * GPU's global memory and for per-block shared-memory segments.
 *
 * A fault campaign may attach a MemFaultPlane to the *global* memory
 * for one run: every access is then filtered through the plane's ECC
 * model. Without a plane (the default, and all fault-free runs) each
 * access costs only one predictable null-pointer test.
 */
class Memory
{
  public:
    /** Backing storage comes from zero pages (ZeroPageAllocator):
     *  only the pages a run writes become resident. */
    explicit Memory(std::size_t bytes);

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    std::size_t size() const { return bytes_.size(); }

    /** Attach (or detach, with nullptr) a memory-cell fault plane.
     *  Non-owning; the campaign run owns the plane. */
    void attachFaultPlane(MemFaultPlane *plane) { plane_ = plane; }
    MemFaultPlane *faultPlane() const { return plane_; }

    /** 32-bit word access; @p addr is a byte address (any alignment
     *  is accepted; workloads use 4-byte-aligned addresses). Inline:
     *  these sit in the executor's per-lane load/store loops, and the
     *  bounds test plus memcpy must fold into them — the panic and
     *  fault-plane branches call out of line. */
    RegValue
    readWord(Addr addr) const
    {
        if (addr + 4 > bytes_.size() || addr + 4 < addr) [[unlikely]]
            outOfBounds(addr, 4);
        RegValue v;
        std::memcpy(&v, bytes_.data() + addr, 4);
        if (plane_) [[unlikely]]
            v = filterWordSlow(addr, v);
        return v;
    }

    void
    writeWord(Addr addr, RegValue value)
    {
        if (addr + 4 > bytes_.size() || addr + 4 < addr) [[unlikely]]
            outOfBounds(addr, 4);
        std::memcpy(bytes_.data() + addr, &value, 4);
        markDirty(addr, 4);
        if (plane_) [[unlikely]]
            onWriteSlow(addr, 4);
    }

    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);

    /** Bulk host<->device style copies (workload setup/teardown). */
    void copyIn(Addr addr, const void *src, std::size_t n);
    void copyOut(Addr addr, void *dst, std::size_t n) const;

    /** Zero the whole memory (only the written span needs it). */
    void clear();

    /** A copy of the written span: every byte outside
     *  [lo, lo + bytes.size()) is zero. */
    struct Span
    {
        std::size_t lo = 0;
        std::vector<std::uint8_t> bytes;
    };

    /** Snapshot support: copy out the written span. */
    Span saveSpan() const;
    /** Changes whenever the contents may have: a snapshot taken at an
     *  unchanged epoch still holds them. */
    std::uint64_t writeEpoch() const { return writeEpoch_; }

    /**
     * Snapshot support: make the contents equal to @p s — its bytes
     * in place, zero everywhere else — as raw storage, with no
     * access simulated (an attached fault plane sees nothing).
     */
    void restoreSpan(const Span &s);

    /** Make the contents equal to @p o's (a memory of the same size),
     *  as restoreSpan does for its written span: the machine fork
     *  (gpu::Gpu::forkFrom) copies memory to memory this way. */
    void copyFrom(const Memory &o);

  private:
    /** Make the contents the @p hi - @p lo bytes at @p src in
     *  [lo, hi), zero everywhere else (nothing when lo >= hi). */
    void assignSpan(std::size_t lo, std::size_t hi, const std::uint8_t *src);

    /** Widen the written span to cover [addr, addr + n). */
    void
    markDirty(Addr addr, std::size_t n)
    {
        dirtyLo_ = std::min<std::size_t>(dirtyLo_, addr);
        dirtyHi_ = std::max<std::size_t>(dirtyHi_, addr + n);
        ++writeEpoch_;
    }

    void check(Addr addr, std::size_t n) const;
    [[noreturn]] void outOfBounds(Addr addr, std::size_t n) const;
    /** Out-of-line fault-plane hops (plane_ != nullptr only). */
    RegValue filterWordSlow(Addr addr, RegValue v) const;
    void onWriteSlow(Addr addr, std::size_t n);

    std::vector<std::uint8_t, ZeroPageAllocator<std::uint8_t>> bytes_;
    MemFaultPlane *plane_ = nullptr; ///< non-owning; campaign-run scoped
    /** Every byte outside [dirtyLo_, dirtyHi_) is still zero (empty
     *  when dirtyLo_ >= dirtyHi_). Covers every store, including
     *  wrapped stores to fault-corrupted addresses. */
    std::size_t dirtyLo_;
    std::size_t dirtyHi_ = 0;
    std::uint64_t writeEpoch_ = 0; ///< see writeEpoch
};

/**
 * Bump allocator over a Memory, used by workloads to lay out their
 * device buffers. Returns 256-byte-aligned addresses (mimicking
 * cudaMalloc alignment) and never frees.
 */
class LinearAllocator
{
  public:
    explicit LinearAllocator(std::size_t capacity, Addr base = 256);

    /** Allocate @p bytes; fatal on exhaustion. */
    Addr alloc(std::size_t bytes);

    std::size_t used() const { return next_; }

  private:
    std::size_t capacity_;
    Addr next_;
};

} // namespace mem
} // namespace warped

#endif // WARPED_MEM_MEMORY_HH
