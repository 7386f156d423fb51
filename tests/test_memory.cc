/**
 * @file
 * Unit tests: simulated memories, the dirty-span buffer reuse under
 * them, and the device allocator.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu.hh"
#include "mem/memory.hh"
#include "workloads/workload.hh"

using namespace warped;
using mem::LinearAllocator;
using mem::Memory;

namespace {

/** Index of the first non-zero byte of @p m at or after @p from, or
 *  m.size() when there is none. */
std::size_t
firstNonZero(const Memory &m, std::size_t from = 0)
{
    for (std::size_t a = from; a < m.size(); ++a) {
        if (m.readByte(a) != 0)
            return a;
    }
    return m.size();
}

} // namespace

TEST(Memory, WordRoundTrip)
{
    Memory m(256);
    m.writeWord(0, 0x12345678);
    m.writeWord(252, 0xcafebabe);
    EXPECT_EQ(m.readWord(0), 0x12345678u);
    EXPECT_EQ(m.readWord(252), 0xcafebabeu);
}

TEST(Memory, ByteAccessAndEndianness)
{
    Memory m(16);
    m.writeWord(0, 0x04030201);
    EXPECT_EQ(m.readByte(0), 1u); // little-endian like the host
    EXPECT_EQ(m.readByte(3), 4u);
    m.writeByte(1, 0xff);
    EXPECT_EQ(m.readWord(0), 0x0403ff01u);
}

TEST(Memory, UnalignedWordAccessWorks)
{
    Memory m(16);
    m.writeWord(1, 0xaabbccdd);
    EXPECT_EQ(m.readWord(1), 0xaabbccddu);
}

TEST(Memory, OutOfBoundsPanics)
{
    setVerbose(false);
    Memory m(16);
    EXPECT_THROW(m.readWord(13), std::logic_error);
    EXPECT_THROW(m.writeWord(16, 0), std::logic_error);
    EXPECT_THROW(m.readByte(16), std::logic_error);
}

TEST(Memory, BulkCopies)
{
    Memory m(64);
    const std::uint32_t src[4] = {1, 2, 3, 4};
    m.copyIn(8, src, sizeof(src));
    std::uint32_t dst[4] = {};
    m.copyOut(8, dst, sizeof(dst));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dst[i], src[i]);
    m.clear();
    EXPECT_EQ(m.readWord(8), 0u);
}

TEST(Allocator, AlignedAndMonotonic)
{
    LinearAllocator a(1 << 20);
    const Addr x = a.alloc(100);
    const Addr y = a.alloc(1);
    EXPECT_EQ(x % 256, 0u);
    EXPECT_EQ(y % 256, 0u);
    EXPECT_GT(y, x);
    EXPECT_GE(y - x, 100u);
}

TEST(Allocator, ExhaustionIsFatal)
{
    setVerbose(false);
    LinearAllocator a(1024);
    a.alloc(512);
    EXPECT_THROW(a.alloc(512), std::runtime_error);
}

// Pooled buffers (>= 64 KiB) are re-zeroed only over the span their
// previous owner wrote; every write path must widen that span.

TEST(DirtySpanPool, EveryWritePathIsZeroedOnReuse)
{
    // An odd size no other test uses, so the pooled buffer the second
    // Memory receives is the one the first Memory released.
    constexpr std::size_t kBytes = (1u << 18) + 4096u;
    for (unsigned round = 0; round < 3; ++round) {
        {
            Memory m(kBytes);
            ASSERT_EQ(firstNonZero(m), kBytes) << "round " << round;
            m.writeWord(kBytes - 4, 0xdeadbeef); // the last word
            m.writeWord(4096 * (round + 1), 1);
            m.writeByte(12345 + round, 0x7f);
            const std::uint8_t blob[100] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
            m.copyIn(70000 + 8 * round, blob, sizeof blob);
            EXPECT_EQ(m.readWord(kBytes - 4), 0xdeadbeefu);
        }
        Memory next(kBytes);
        EXPECT_EQ(firstNonZero(next), kBytes) << "round " << round;
    }
}

TEST(DirtySpanPool, ClearZeroesTheWrittenSpan)
{
    constexpr std::size_t kBytes = (1u << 18) + 8192u;
    Memory m(kBytes);
    m.writeWord(100, 7);
    m.writeByte(kBytes - 1, 9);
    m.clear();
    EXPECT_EQ(firstNonZero(m), kBytes);
    m.writeWord(200000, 3); // writes after clear are tracked again
    EXPECT_EQ(firstNonZero(m), 200000u);
    m.clear();
    EXPECT_EQ(firstNonZero(m), kBytes);
}

TEST(DirtySpanPool, WrappedCorruptedStoreIsZeroedOnReuse)
{
    // An injected run whose stuck-at-1 fault sets address bit 22 on
    // every LD/ST lane-0 value of SM 0: its stores wrap into the upper
    // half of the 8 MiB DRAM, far outside the workload's footprint.
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 4;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::StuckAtOne;
    spec.sm = 0;
    spec.lane = 0;
    spec.bit = 22;
    spec.unit = isa::UnitType::LDST;
    {
        fault::FaultInjector inj;
        inj.add(spec);
        auto w = workloads::makeMatrixMul(32);
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault(), 1, &inj);
        w->setup(g);
        g.launch(w->program(), w->gridBlocks(), w->blockThreads());
        ASSERT_GT(inj.activations(), 0u);
        const std::size_t footprint = g.allocator().used();
        ASSERT_LT(footprint, std::size_t{1} << 22);
        ASSERT_LT(firstNonZero(g.mem(), std::size_t{1} << 22),
                  g.mem().size())
            << "no store wrapped into the upper half";
    }
    Memory next(cfg.globalMemBytes);
    EXPECT_EQ(firstNonZero(next), next.size());
}
