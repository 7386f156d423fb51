/**
 * @file
 * Tests for the warp-shuffle ISA extension and the memory-partition
 * contention model.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "isa/kernel_builder.hh"
#include "mem/memory_system.hh"
#include "workloads/workload.hh"

using namespace warped;
using isa::KernelBuilder;

namespace {

/** Classic warp-level sum reduction via SHFL_XOR butterflies. */
isa::Program
warpReduce(Addr out)
{
    KernelBuilder kb("reduce", 16);
    auto tid = kb.reg(), v = kb.reg(), o = kb.reg(), addr = kb.reg();
    kb.s2r(tid, isa::SpecialReg::Tid);
    kb.iaddi(v, tid, 1); // values 1..32 per warp
    for (unsigned m = 16; m >= 1; m >>= 1) {
        kb.shflXor(o, v, static_cast<std::int32_t>(m));
        kb.iadd(v, v, o);
    }
    kb.shli(addr, tid, 2);
    kb.iaddi(addr, addr, static_cast<std::int32_t>(out));
    kb.stg(addr, v);
    return kb.build();
}

} // namespace

TEST(Shfl, XorButterflyReduction)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 1;
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
    const Addr out = g.allocator().alloc(32 * 4);
    const auto r = g.launch(warpReduce(out), 1, 32);
    // Sum of 1..32 = 528 in every lane; DMR must agree.
    for (unsigned t = 0; t < 32; ++t)
        EXPECT_EQ(g.mem().readWord(out + 4 * t), 528u) << t;
    EXPECT_EQ(r.dmr.errorsDetected, 0u);
    EXPECT_DOUBLE_EQ(r.coverage(), 1.0);
}

TEST(Shfl, DownShiftsWithClamp)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 1;
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
    const Addr out = g.allocator().alloc(32 * 4);

    KernelBuilder kb("down", 16);
    auto tid = kb.reg(), v = kb.reg(), o = kb.reg(), addr = kb.reg();
    kb.s2r(tid, isa::SpecialReg::Tid);
    kb.mov(v, tid);
    kb.shflDown(o, v, 4);
    kb.shli(addr, tid, 2);
    kb.iaddi(addr, addr, static_cast<std::int32_t>(out));
    kb.stg(addr, o);

    g.launch(kb.build(), 1, 32);
    for (unsigned t = 0; t < 32; ++t) {
        // Lanes 28..31 have no source lane: keep their own value.
        const unsigned want = t + 4 < 32 ? t + 4 : t;
        EXPECT_EQ(g.mem().readWord(out + 4 * t), want) << t;
    }
}

TEST(Shfl, DivergentShuffleFallsBackToOwnValue)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 1;
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
    const Addr out = g.allocator().alloc(32 * 4);

    // Only even lanes execute the shuffle: their XOR-1 partners are
    // inactive, so each gets its own value back.
    KernelBuilder kb("divshfl", 16);
    auto tid = kb.reg(), bit = kb.reg(), p = kb.reg(), v = kb.reg(),
         o = kb.reg(), addr = kb.reg(), one = kb.reg();
    kb.s2r(tid, isa::SpecialReg::Tid);
    kb.movi(one, 1);
    kb.andi(bit, tid, 1);
    kb.isetpNe(p, bit, one); // even lanes
    kb.iaddi(v, tid, 100);
    kb.movi(o, 0);
    kb.ifThen(p, [&] { kb.shflXor(o, v, 1); });
    kb.shli(addr, tid, 2);
    kb.iaddi(addr, addr, static_cast<std::int32_t>(out));
    kb.stg(addr, o);

    const auto r = g.launch(kb.build(), 1, 32);
    EXPECT_EQ(r.dmr.errorsDetected, 0u);
    for (unsigned t = 0; t < 32; ++t) {
        const unsigned want = (t % 2 == 0) ? t + 100 : 0;
        EXPECT_EQ(g.mem().readWord(out + 4 * t), want) << t;
    }
}

TEST(MemorySystem, QueueingDelaysConcurrentTransactions)
{
    auto cfg = arch::GpuConfig::testDefault();
    cfg.memoryPartitions = 2;
    cfg.memoryServicePeriod = 4;
    cfg.globalMemLatency = 100;
    mem::MemorySystem ms(cfg);

    // Four transactions hitting the same partition back to back.
    // All even segments -> partition 0.
    const auto done = ms.access(0, std::vector<Addr>{0, 2, 4, 6});
    EXPECT_EQ(done, 0 + 3 * 4 + 100u);
    EXPECT_EQ(ms.transactions(), 4u);
    EXPECT_EQ(ms.queueingCycles(), 4u + 8u + 12u);

    // Spread across both partitions: half the queueing.
    mem::MemorySystem ms2(cfg);
    const auto done2 = ms2.access(0, std::vector<Addr>{0, 1, 2, 3});
    EXPECT_EQ(done2, 0 + 1 * 4 + 100u);
}

TEST(MemorySystem, ContentionSlowsBandwidthBoundKernels)
{
    setVerbose(false);
    auto run = [](bool contention) {
        auto cfg = arch::GpuConfig::testDefault();
        cfg.numSms = 4;
        cfg.modelMemContention = contention;
        cfg.memoryPartitions = 2;
        cfg.memoryServicePeriod = 4;
        auto w = workloads::makeMum(4); // pointer-chasing traffic
        gpu::Gpu g(cfg, dmr::DmrConfig::off());
        return workloads::runVerified(*w, g).cycles;
    };
    EXPECT_GT(run(true), run(false));
}

TEST(MemorySystem, OffByDefault)
{
    EXPECT_FALSE(arch::GpuConfig::testDefault().modelMemContention);
}

TEST(WarpWidth, NonDefaultWarpSizesWork)
{
    setVerbose(false);
    for (unsigned ws : {16u, 64u}) {
        auto cfg = arch::GpuConfig::testDefault();
        cfg.warpSize = ws;
        cfg.numSms = 2;
        auto w = workloads::makeScan(2);
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
        const auto r = workloads::runVerified(*w, g);
        EXPECT_EQ(r.dmr.errorsDetected, 0u) << ws;
        EXPECT_GT(r.coverage(), 0.5) << ws;
    }
}

TEST(WarpWidth, WiderWarpsDivergeMore)
{
    setVerbose(false);
    auto frac_full = [](unsigned ws) {
        auto cfg = arch::GpuConfig::testDefault();
        cfg.warpSize = ws;
        cfg.numSms = 2;
        auto w = workloads::makeBfs(2);
        gpu::Gpu g(cfg, dmr::DmrConfig::off());
        const auto r = workloads::runVerified(*w, g);
        return r.activeHist.rangeFraction(ws, ws);
    };
    // A wider warp bundles more divergent threads, so fully-active
    // issue slots become rarer — the scaling trend the paper's intro
    // motivates (more contexts -> more exposure for Warped-DMR).
    EXPECT_LT(frac_full(64), frac_full(16));
}
