#include "mem/memory.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "mem/mem_fault.hh"

namespace warped {
namespace mem {

namespace {

/** Storage at least this large is mapped, smaller storage calloc'd
 *  (shared-memory segments are recycled in place by the SM). */
constexpr std::size_t kMinMappedBytes = 1 << 16;

} // namespace

void *
allocateZeroed(std::size_t bytes)
{
    if (bytes >= kMinMappedBytes) {
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
    if (bytes >= kMinMappedBytes)
        ::munmap(p, bytes);
    else
        std::free(p);
}

Memory::Memory(std::size_t bytes) : bytes_(bytes), dirtyLo_(bytes_.size())
{
}

void
Memory::check(Addr addr, std::size_t n) const
{
    if (addr + n > bytes_.size() || addr + n < addr)
        outOfBounds(addr, n);
}

void
Memory::outOfBounds(Addr addr, std::size_t n) const
{
    warped_panic("memory access [", addr, ", ", addr + n,
                 ") out of bounds (size ", bytes_.size(), ")");
}

RegValue
Memory::filterWordSlow(Addr addr, RegValue v) const
{
    return plane_->filterWord(addr, v);
}

void
Memory::onWriteSlow(Addr addr, std::size_t n)
{
    plane_->onWrite(addr, n);
}

std::uint8_t
Memory::readByte(Addr addr) const
{
    check(addr, 1);
    std::uint8_t b = bytes_[addr];
    if (plane_) [[unlikely]]
        b = plane_->filterByte(addr, b, bytes_.data());
    return b;
}

void
Memory::writeByte(Addr addr, std::uint8_t value)
{
    check(addr, 1);
    bytes_[addr] = value;
    markDirty(addr, 1);
    if (plane_) [[unlikely]]
        plane_->onWrite(addr, 1);
}

void
Memory::copyIn(Addr addr, const void *src, std::size_t n)
{
    check(addr, n);
    std::memcpy(bytes_.data() + addr, src, n);
    markDirty(addr, n);
    if (plane_) [[unlikely]]
        plane_->onWrite(addr, n);
}

void
Memory::copyOut(Addr addr, void *dst, std::size_t n) const
{
    check(addr, n);
    std::memcpy(dst, bytes_.data() + addr, n);
    if (plane_) [[unlikely]]
        plane_->patchCopyOut(addr, dst, n, bytes_.data());
}

void
Memory::clear()
{
    if (dirtyLo_ < dirtyHi_)
        std::memset(bytes_.data() + dirtyLo_, 0, dirtyHi_ - dirtyLo_);
    dirtyLo_ = bytes_.size();
    dirtyHi_ = 0;
    ++writeEpoch_;
}

Memory::Span
Memory::saveSpan() const
{
    Span s;
    if (dirtyLo_ < dirtyHi_) {
        s.lo = dirtyLo_;
        s.bytes.assign(bytes_.begin() + dirtyLo_,
                       bytes_.begin() + dirtyHi_);
    }
    return s;
}

void
Memory::restoreSpan(const Span &s)
{
    const std::size_t hi = s.lo + s.bytes.size();
    if (hi > bytes_.size() || hi < s.lo)
        outOfBounds(s.lo, s.bytes.size());
    assignSpan(s.lo, hi, s.bytes.data());
}

void
Memory::copyFrom(const Memory &o)
{
    if (o.size() != size())
        warped_panic("memory copy from ", o.size(), " bytes into ",
                     size());
    assignSpan(o.dirtyLo_, o.dirtyHi_, o.bytes_.data() + o.dirtyLo_);
}

void
Memory::assignSpan(std::size_t lo, std::size_t hi, const std::uint8_t *src)
{
    // Only the current written span can be non-zero; skip zeroing it
    // when the incoming span covers it anyway.
    if (dirtyLo_ < dirtyHi_ && (lo >= hi || dirtyLo_ < lo || dirtyHi_ > hi))
        std::memset(bytes_.data() + dirtyLo_, 0, dirtyHi_ - dirtyLo_);
    if (lo < hi) {
        std::memcpy(bytes_.data() + lo, src, hi - lo);
        dirtyLo_ = lo;
        dirtyHi_ = hi;
    } else {
        dirtyLo_ = bytes_.size();
        dirtyHi_ = 0;
    }
    ++writeEpoch_;
}

LinearAllocator::LinearAllocator(std::size_t capacity, Addr base)
    : capacity_(capacity), next_(base)
{
}

Addr
LinearAllocator::alloc(std::size_t bytes)
{
    const Addr addr = next_;
    const std::size_t padded = (bytes + 255u) & ~std::size_t{255u};
    if (addr + padded > capacity_)
        warped_fatal("device allocator exhausted: want ", bytes,
                     " bytes at ", addr, ", capacity ", capacity_);
    next_ = addr + padded;
    return addr;
}

} // namespace mem
} // namespace warped
