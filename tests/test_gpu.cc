/**
 * @file
 * Integration tests: chip-level launch — block dispatch across SMs,
 * launch validation, watchdog, statistics aggregation.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "isa/kernel_builder.hh"

using namespace warped;
using namespace warped::isa;

namespace {

Program
counterKernel(Addr out, unsigned iters)
{
    KernelBuilder kb("counter", 16);
    auto gtid = kb.reg(), i = kb.reg(), lim = kb.reg(), acc = kb.reg(),
         addr = kb.reg();
    kb.s2r(gtid, SpecialReg::Gtid);
    kb.movi(lim, static_cast<std::int32_t>(iters));
    kb.movi(acc, 0);
    kb.forCounter(i, 0, lim, 1, [&] { kb.iaddi(acc, acc, 1); });
    kb.shli(addr, gtid, 2);
    kb.iaddi(addr, addr, static_cast<std::int32_t>(out));
    kb.stg(addr, acc);
    return kb.build();
}

} // namespace

TEST(Gpu, AllBlocksRunOnAllSms)
{
    setVerbose(false);
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    const Addr out = g.allocator().alloc(64 * 64 * 4);
    const auto prog = counterKernel(out, 5);
    const auto r = g.launch(prog, 64, 64);
    EXPECT_EQ(r.blocksRetired, 64u);
    EXPECT_FALSE(r.hung);
    for (unsigned t = 0; t < 64 * 64; ++t)
        ASSERT_EQ(g.mem().readWord(out + 4 * t), 5u) << "thread " << t;
}

TEST(Gpu, MoreSmsFinishSooner)
{
    setVerbose(false);
    auto cfg1 = arch::GpuConfig::testDefault();
    cfg1.numSms = 1;
    auto cfg4 = cfg1;
    cfg4.numSms = 4;

    Cycle c1, c4;
    {
        gpu::Gpu g(cfg1, dmr::DmrConfig::off());
        const Addr out = g.allocator().alloc(32 * 256 * 4);
        c1 = g.launch(counterKernel(out, 20), 32, 256).cycles;
    }
    {
        gpu::Gpu g(cfg4, dmr::DmrConfig::off());
        const Addr out = g.allocator().alloc(32 * 256 * 4);
        c4 = g.launch(counterKernel(out, 20), 32, 256).cycles;
    }
    EXPECT_LT(double(c4), 0.5 * double(c1));
}

TEST(Gpu, LaunchValidationFatals)
{
    setVerbose(false);
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    const Addr out = g.allocator().alloc(1024);
    const auto prog = counterKernel(out, 1);
    EXPECT_THROW(g.launch(prog, 0, 32), std::runtime_error);
    EXPECT_THROW(g.launch(prog, 1, 0), std::runtime_error);
    EXPECT_THROW(g.launch(prog, 1, 4096), std::runtime_error);
}

TEST(Gpu, OversizedSharedMemoryIsFatal)
{
    setVerbose(false);
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    KernelBuilder kb("big", 16);
    kb.shared(65 * 1024);
    auto a = kb.reg();
    kb.movi(a, 1);
    const auto prog = kb.build();
    EXPECT_THROW(g.launch(prog, 1, 32), std::runtime_error);
}

TEST(Gpu, WatchdogFlagsRunaway)
{
    setVerbose(false);
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    // An honest but long kernel against a tiny watchdog budget.
    const Addr out = g.allocator().alloc(32 * 4);
    const auto prog = counterKernel(out, 100000);
    const auto r = g.launch(prog, 1, 32, /*cycle_cap=*/500);
    EXPECT_TRUE(r.hung);
    EXPECT_EQ(r.cycles, 501u);
}

TEST(Gpu, StatsAggregateAcrossSms)
{
    setVerbose(false);
    gpu::Gpu g(arch::GpuConfig::testDefault(),
               dmr::DmrConfig::paperDefault());
    const Addr out = g.allocator().alloc(8 * 256 * 4);
    const auto prog = counterKernel(out, 3);
    const auto r = g.launch(prog, 8, 256);
    EXPECT_GT(r.issuedWarpInstrs, 0u);
    EXPECT_EQ(r.issuedThreadInstrs, r.activeHist.total() == 0
                                        ? 0
                                        : r.issuedThreadInstrs);
    // The histogram holds exactly one entry per issued instruction.
    EXPECT_EQ(r.activeHist.total(), r.issuedWarpInstrs);
    // Unit issues partition the issue slots.
    EXPECT_EQ(r.unitIssues[0] + r.unitIssues[1] + r.unitIssues[2],
              r.issuedWarpInstrs);
    // Coverage bounds.
    EXPECT_GT(r.coverage(), 0.0);
    EXPECT_LE(r.coverage(), 1.0);
    EXPECT_EQ(r.dmr.errorsDetected, 0u);
}

TEST(Gpu, DeterministicAcrossRuns)
{
    setVerbose(false);
    auto run = [] {
        gpu::Gpu g(arch::GpuConfig::testDefault(),
                   dmr::DmrConfig::paperDefault(), /*seed=*/7);
        const Addr out = g.allocator().alloc(16 * 128 * 4);
        return g.launch(counterKernel(out, 10), 16, 128).cycles;
    };
    EXPECT_EQ(run(), run());
}

TEST(Gpu, IssueTraceBoundedAndOrdered)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.traceIssueLimit = 16;
    gpu::Gpu g(cfg, dmr::DmrConfig::off());
    const Addr out = g.allocator().alloc(4 * 64 * 4);
    const auto r = g.launch(counterKernel(out, 4), 4, 64);

    // Bounded per SM, non-empty, cycle-ordered, fields plausible.
    EXPECT_GT(r.trace.size(), 0u);
    EXPECT_LE(r.trace.size(), std::size_t{16} * cfg.numSms);
    for (std::size_t i = 1; i < r.trace.size(); ++i)
        EXPECT_LE(r.trace[i - 1].cycle, r.trace[i].cycle);
    for (const auto &ev : r.trace) {
        EXPECT_LT(ev.sm, cfg.numSms);
        EXPECT_LE(ev.activeCount, cfg.warpSize);
        EXPECT_GT(ev.activeCount, 0u);
    }
    // The very first issued instruction of the kernel is its S2R.
    EXPECT_EQ(r.trace.front().instr.op, isa::Opcode::S2R);
}

TEST(Gpu, TraceOffByDefault)
{
    setVerbose(false);
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    const Addr out = g.allocator().alloc(64 * 4);
    const auto r = g.launch(counterKernel(out, 2), 1, 64);
    EXPECT_TRUE(r.trace.empty());
}

TEST(Gpu, SequentialLaunchesShareMemory)
{
    setVerbose(false);
    // Kernel A writes out[i] = i*2; kernel B reads A's output and
    // adds 5 — a two-stage pipeline on one Gpu, exercising allocator
    // and memory persistence across launches.
    gpu::Gpu g(arch::GpuConfig::testDefault(), dmr::DmrConfig::off());
    const Addr buf = g.allocator().alloc(64 * 4);

    KernelBuilder a("stage_a", 8);
    {
        auto gtid = a.reg(), v = a.reg(), addr = a.reg();
        a.s2r(gtid, SpecialReg::Gtid);
        a.iadd(v, gtid, gtid);
        a.shli(addr, gtid, 2);
        a.iaddi(addr, addr, static_cast<std::int32_t>(buf));
        a.stg(addr, v);
    }
    KernelBuilder b("stage_b", 8);
    {
        auto gtid = b.reg(), v = b.reg(), addr = b.reg();
        b.s2r(gtid, SpecialReg::Gtid);
        b.shli(addr, gtid, 2);
        b.iaddi(addr, addr, static_cast<std::int32_t>(buf));
        b.ldg(v, addr);
        b.iaddi(v, v, 5);
        b.stg(addr, v);
    }

    g.launch(a.build(), 2, 32);
    g.launch(b.build(), 2, 32);
    for (unsigned t = 0; t < 64; ++t)
        EXPECT_EQ(g.mem().readWord(buf + 4 * t), 2 * t + 5);
}

TEST(Gpu, StopPredicateEndsLaunchAfterThatCycle)
{
    setVerbose(false);
    gpu::Gpu g(arch::GpuConfig::testDefault(),
               dmr::DmrConfig::paperDefault());
    const Addr out = g.allocator().alloc(64 * 64 * 4);
    const auto prog = counterKernel(out, 5);
    Cycle next = 0; // called once per cycle, in order
    const gpu::StopPredicate stop = [&](Cycle c,
                                        const gpu::LaunchLoop &loop) {
        EXPECT_EQ(c, next++);
        EXPECT_EQ(loop.detections(), 0u); // fault-free machine
        return c == 100;
    };
    const auto r = g.launch(prog, 64, 64, 0, stop);
    EXPECT_EQ(next, 101u);
    EXPECT_EQ(r.cycles, 101u); // cycles simulated, 0..100
    EXPECT_FALSE(r.hung);
    EXPECT_LT(r.blocksRetired, 64u);
}

TEST(Gpu, NeverFiringStopPredicateChangesNothing)
{
    setVerbose(false);
    const auto run = [](const gpu::StopPredicate &stop) {
        gpu::Gpu g(arch::GpuConfig::testDefault(),
                   dmr::DmrConfig::paperDefault());
        const Addr out = g.allocator().alloc(64 * 64 * 4);
        return g.launch(counterKernel(out, 5), 64, 64, 0, stop);
    };
    unsigned calls = 0;
    const auto plain = run({});
    const auto checked = run([&](Cycle, const gpu::LaunchLoop &) {
        ++calls;
        return false;
    });
    EXPECT_EQ(checked.metrics.toJson(), plain.metrics.toJson());
    EXPECT_EQ(calls, plain.cycles);
}
