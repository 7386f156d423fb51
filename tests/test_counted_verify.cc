/**
 * @file
 * Counted verification. Executor::stepInto stamps a record clean when
 * no live fault hook touched its results; the DMR engine counts the
 * verification of a clean record at a cycle where the hook is not
 * live either, instead of re-executing it, and ReplayCompareScheme
 * skips its candidate filter for it.
 *
 * The oracle is LiveIdentityHook: the identity, but live at every
 * cycle (FaultHook's default liveAt). Under it no record is clean and
 * every verification re-executes each slot through the per-slot
 * comparator. Final DRAM, every metric and every trace event must
 * match the NullFaultHook run — on every pinned configuration and on
 * a sample of fuzzed kernels. Engine-level cases pin the counted
 * intra-/inter-warp counts against recomputation for every cluster
 * occupancy, and show that a clean record verified inside a live
 * window still meets the comparator.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "dmr/dmr_engine.hh"
#include "gpu/gpu.hh"
#include "kernel_fuzzer.hh"
#include "mem/memory.hh"
#include "pinned_configs.hh"

using namespace warped;

namespace {

/** The always-recompute oracle: changes nothing, claims to be live. */
class LiveIdentityHook final : public func::FaultHook
{
  public:
    RegValue apply(RegValue pure, const func::FaultCtx &) override
    {
        return pure;
    }
};

/** Flips bit 0 of everything lane @p lane produces. */
class FlipLaneHook final : public func::FaultHook
{
  public:
    explicit FlipLaneHook(unsigned lane) : lane_(lane) {}
    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        return ctx.lane == lane_ ? pure ^ 1u : pure;
    }

  private:
    unsigned lane_;
};

/** What a sequence of launches leaves behind. */
struct Observed
{
    std::vector<std::string> metrics;
    std::vector<trace::Event> events;
    std::vector<std::vector<std::uint8_t>> dram;
};

auto
eventKey(const trace::Event &e)
{
    return std::make_tuple(e.cycle, e.seq, e.sm, e.kind, e.unit, e.warp,
                           e.pc, e.a0, e.a1);
}

void
expectSame(const Observed &want, const Observed &got)
{
    EXPECT_EQ(got.metrics, want.metrics);
    EXPECT_TRUE(got.dram == want.dram) << "final global memory differs";
    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t i = 0; i < want.events.size(); ++i) {
        ASSERT_EQ(eventKey(got.events[i]), eventKey(want.events[i]))
            << "event " << i << " differs";
    }
}

void
record(Observed &o, gpu::Gpu &g, const stats::LaunchResult &r)
{
    o.metrics.push_back(r.metrics.toJson());
    o.events.insert(o.events.end(), r.events.begin(), r.events.end());
    std::vector<std::uint8_t> dram(g.allocator().used());
    g.mem().copyOut(0, dram.data(), dram.size());
    o.dram.push_back(std::move(dram));
}

Observed
runPinned(const test::PinnedConfig &cfg, func::FaultHook &hook)
{
    auto gpu = arch::GpuConfig::testDefault();
    gpu.numSms = 4;
    gpu.memModel = cfg.memModel;
    gpu.eccKind = cfg.ecc;
    gpu.traceEvents = true;
    Observed o;
    for (const auto &factory : cfg.factories) {
        auto w = factory();
        gpu::Gpu g(gpu, cfg.dmr, /*seed=*/1, &hook, cfg.recovery,
                   cfg.scheme);
        record(o, g, workloads::runVerified(*w, g));
    }
    return o;
}

Observed
runFuzz(std::uint64_t seed, const dmr::DmrConfig &d,
        func::FaultHook &hook)
{
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 2;
    cfg.traceEvents = true;
    gpu::Gpu g(cfg, d, /*seed=*/1, &hook);
    const Addr out = g.allocator().alloc(64 * 4);
    const isa::Program prog = testutil::KernelFuzzer(seed).generate(out);
    Observed o;
    record(o, g, g.launch(prog, 2, 64));
    return o;
}

std::vector<std::string>
pinnedNames()
{
    std::vector<std::string> names;
    for (const auto &cfg : test::pinnedConfigs())
        names.push_back(cfg.name);
    return names;
}

/** Parameterised by the configuration's name, so test names are
 *  plain text. */
class CountedVerifyPinned : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(CountedVerifyPinned, MatchesTheAlwaysRecomputeOracle)
{
    setVerbose(false);
    for (const auto &cfg : test::pinnedConfigs()) {
        if (cfg.name != GetParam())
            continue;
        LiveIdentityHook oracle;
        expectSame(runPinned(cfg, oracle),
                   runPinned(cfg, func::NullFaultHook::instance()));
        return;
    }
    FAIL() << "no pinned config " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    PinnedConfigs, CountedVerifyPinned, ::testing::ValuesIn(pinnedNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(CountedVerify, FuzzedKernelsMatchTheAlwaysRecomputeOracle)
{
    setVerbose(false);
    // DMTR sends every record through the ReplayQ; a one-entry queue
    // adds eager verifies at now + 1.
    auto tiny_queue = dmr::DmrConfig::paperDefault();
    tiny_queue.replayQSize = 1;
    const dmr::DmrConfig configs[] = {dmr::DmrConfig::paperDefault(),
                                      dmr::DmrConfig::dmtr(), tiny_queue};
    LiveIdentityHook oracle;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        for (const auto &d : configs) {
            SCOPED_TRACE("fuzz seed " + std::to_string(seed));
            expectSame(runFuzz(seed, d, oracle),
                       runFuzz(seed, d, func::NullFaultHook::instance()));
        }
    }
}

namespace {

struct CountedVerifyEngine : ::testing::Test
{
    CountedVerifyEngine()
        : cfg(arch::GpuConfig::testDefault()), global(4096),
          exec(cfg, 0, global, func::NullFaultHook::instance())
    {
    }

    /** A consistent IADD record over @p active (results = recompute). */
    func::ExecRecord
    rec(LaneMask active, bool clean)
    {
        func::ExecRecord r;
        r.instr.op = isa::Opcode::IADD;
        r.instr.dst = isa::Reg{1};
        r.instr.src[0] = isa::Reg{2};
        r.instr.src[1] = isa::Reg{3};
        r.active = active;
        r.clean = clean;
        for (unsigned s = 0; s < 32; ++s) {
            r.operands[0][s] = 3 * s + 1;
            r.operands[1][s] = 7;
            r.results[s] = r.operands[0][s] + r.operands[1][s];
        }
        return r;
    }

    /** Stats after issuing @p r alone and draining. */
    dmr::DmrStats
    verify(const func::ExecRecord &r, const dmr::DmrConfig &d)
    {
        dmr::DmrEngine e(cfg, d, exec, 1);
        e.onIssue(r, 0);
        e.drainAll(1);
        return e.stats();
    }

    arch::GpuConfig cfg;
    mem::Memory global;
    func::Executor exec;
};

void
expectSameCounts(const dmr::DmrStats &want, const dmr::DmrStats &got)
{
    EXPECT_EQ(got.comparisons, want.comparisons);
    EXPECT_EQ(got.redundantThreadExecs, want.redundantThreadExecs);
    EXPECT_EQ(got.verifiedThreadInstrs, want.verifiedThreadInstrs);
    EXPECT_EQ(got.intraVerifiedThreads, want.intraVerifiedThreads);
    EXPECT_EQ(got.interVerifiedThreads, want.interVerifiedThreads);
    EXPECT_EQ(got.errorsDetected, want.errorsDetected);
}

} // namespace

TEST_F(CountedVerifyEngine, EveryClusterOccupancyCountsLikeRecomputation)
{
    // Four 4-lane clusters per warp at the test geometry, and 2- and
    // 8-lane clusters as well: every occupancy of cluster 0 next to a
    // rotating pattern in the others, under both thread mappings.
    for (const unsigned w : {2u, 4u, 8u}) {
        cfg.lanesPerCluster = w;
        for (const auto mapping : {dmr::MappingPolicy::Linear,
                                   dmr::MappingPolicy::CrossCluster}) {
            auto d = dmr::DmrConfig::paperDefault();
            d.mapping = mapping;
            for (std::uint64_t bits = 1; bits < (1ULL << 32);
                 bits = bits * 5 + 3) {
                const LaneMask active(bits & 0xffffffffULL);
                if (active.none())
                    continue;
                SCOPED_TRACE("width " + std::to_string(w) + " mask " +
                             active.toString(32));
                expectSameCounts(verify(rec(active, false), d),
                                 verify(rec(active, true), d));
            }
            expectSameCounts(verify(rec(LaneMask::full(32), false), d),
                             verify(rec(LaneMask::full(32), true), d));
            for (std::uint64_t bits = 1; bits < (1ULL << w); ++bits) {
                const LaneMask active((bits | (0xa5a5a5a5ULL << w)) &
                                      0xffffffffULL);
                expectSameCounts(verify(rec(active, false), d),
                                 verify(rec(active, true), d));
            }
        }
    }
}

TEST_F(CountedVerifyEngine, CleanRecordVerifiedWhileLiveMeetsTheComparator)
{
    // Produced clean, verified at a cycle the hook is live: the
    // checker lanes are faulty, so the comparator must run and flag.
    FlipLaneHook hook(2);
    func::Executor live_exec(cfg, 0, global, hook);
    for (const bool full : {true, false}) {
        dmr::DmrEngine e(cfg, dmr::DmrConfig::paperDefault(), live_exec,
                         1);
        e.onIssue(rec(full ? LaneMask::full(32) : LaneMask(0x3), true),
                  0);
        e.drainAll(1);
        EXPECT_GE(e.stats().errorsDetected, 1u) << "full mask " << full;
    }
}
