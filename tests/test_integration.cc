/**
 * @file
 * Cross-module integration and property tests: the DMR engine's
 * coverage accounting cross-checked against the RFU's analytic
 * prediction, 8-lane-cluster end-to-end runs, tail-warp handling,
 * whole-workload determinism (four representatives and every pinned
 * reference configuration), and alternate workload sizes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <ostream>

#include "common/logging.hh"
#include "dmr/rfu.hh"
#include "dmr/thread_mapping.hh"
#include "gpu/gpu.hh"
#include "isa/kernel_builder.hh"
#include "workloads/workload.hh"
#include "pinned_configs.hh"

using namespace warped;

namespace {

/**
 * Kernel where exactly the first @p k threads of each warp do one
 * extra verifiable instruction inside a divergent region.
 */
isa::Program
maskedKernel(unsigned k, Addr out)
{
    isa::KernelBuilder kb("masked", 16);
    auto tid = kb.reg(), lane = kb.reg(), ck = kb.reg(), p = kb.reg(),
         x = kb.reg(), addr = kb.reg(), c32 = kb.reg();
    kb.s2r(tid, isa::SpecialReg::Tid);
    kb.movi(c32, 32);
    kb.imod(lane, tid, c32);
    kb.movi(ck, static_cast<std::int32_t>(k));
    kb.isetpLt(p, lane, ck);
    kb.movi(x, 7);
    kb.ifThen(p, [&] { kb.iaddi(x, x, 1); });
    kb.shli(addr, tid, 2);
    kb.iaddi(addr, addr, static_cast<std::int32_t>(out));
    kb.stg(addr, x);
    return kb.build();
}

} // namespace

/**
 * For each contiguous mask width k, the engine's intra-warp verified
 * count for the divergent instruction must equal the RFU's analytic
 * prediction under the configured mapping.
 */
class CoveragePrediction : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoveragePrediction, EngineMatchesRfuAnalytics)
{
    setVerbose(false);
    const unsigned k = GetParam();

    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 1;

    for (auto policy : {dmr::MappingPolicy::Linear,
                        dmr::MappingPolicy::CrossCluster}) {
        auto d = dmr::DmrConfig::paperDefault();
        d.interWarp = false; // isolate intra-warp accounting
        d.replayQSize = 0;
        d.mapping = policy;

        gpu::Gpu g(cfg, d);
        const Addr out = g.allocator().alloc(32 * 4);
        const auto r = g.launch(maskedKernel(k, out), 1, 32);

        // Analytic prediction for the one divergent IADDI (mask = the
        // first k thread slots), mapped to lane space.
        dmr::ThreadCoreMapping map(policy, 32, cfg.lanesPerCluster);
        LaneMask slots;
        for (unsigned s = 0; s < k; ++s)
            slots.set(s);
        const LaneMask lanes = map.toLaneSpace(slots);
        unsigned predict = 0;
        for (unsigned c = 0; c < 8; ++c) {
            predict += std::popcount(dmr::Rfu::covered(
                lanes.clusterBits(c, cfg.lanesPerCluster),
                cfg.lanesPerCluster));
        }
        EXPECT_EQ(r.dmr.intraVerifiedThreads, predict)
            << "k=" << k << " policy="
            << (policy == dmr::MappingPolicy::Linear ? "linear"
                                                     : "cross");
        // Output correctness regardless.
        for (unsigned t = 0; t < 32; ++t) {
            EXPECT_EQ(g.mem().readWord(out + 4 * t),
                      t % 32 < k ? 8u : 7u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(MaskWidths, CoveragePrediction,
                         ::testing::Values(1u, 3u, 7u, 15u, 16u, 24u,
                                           29u, 31u));

TEST(EightLaneCluster, EndToEnd)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.lanesPerCluster = 8;
    auto w = workloads::makeScan(2);
    gpu::Gpu g(cfg, dmr::DmrConfig::baselineMapping());
    const auto r = workloads::runVerified(*w, g);
    EXPECT_EQ(r.dmr.errorsDetected, 0u);
    EXPECT_GT(r.coverage(), 0.5);
}

TEST(TailWarps, PartialFinalWarpIsHandled)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 1;
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
    const Addr out = g.allocator().alloc(50 * 4);

    isa::KernelBuilder kb("tail", 8);
    auto gtid = kb.reg(), addr = kb.reg();
    kb.s2r(gtid, isa::SpecialReg::Gtid);
    kb.shli(addr, gtid, 2);
    kb.iaddi(addr, addr, static_cast<std::int32_t>(out));
    kb.stg(addr, gtid);

    // 50 threads: one full warp + one 18/32 warp.
    const auto r = g.launch(kb.build(), 1, 50);
    EXPECT_EQ(r.dmr.errorsDetected, 0u);
    for (unsigned t = 0; t < 50; ++t)
        EXPECT_EQ(g.mem().readWord(out + 4 * t), t);
    // The tail warp's instructions are partial-mask: some intra-warp
    // verification must have happened.
    EXPECT_GT(r.dmr.intraVerifiedThreads, 0u);
    EXPECT_GT(r.dmr.interVerifiedThreads, 0u);
}

namespace {

/** One determinism input: a name and a run returning its launches'
 *  metrics JSON. */
struct DeterminismCase
{
    std::string name;
    std::function<std::vector<std::string>()> run;
};

void
PrintTo(const DeterminismCase &c, std::ostream *os)
{
    *os << ::testing::PrintToString(c.name);
}

/** A full-size workload truncated to its first four blocks. */
DeterminismCase
representative(const char *name)
{
    return {name, [name] {
                auto w = workloads::makeByNameScaled(name, 1);
                gpu::Gpu g(arch::GpuConfig::testDefault(),
                           dmr::DmrConfig::paperDefault(), /*seed*/ 3);
                w->setup(g);
                const auto r =
                    g.launch(w->program(), std::min(4u, w->gridBlocks()),
                             w->blockThreads());
                return std::vector<std::string>{r.metrics.toJson()};
            }};
}

std::vector<DeterminismCase>
pinnedCases()
{
    std::vector<DeterminismCase> cases;
    for (auto &cfg : test::pinnedConfigs()) {
        const auto name = cfg.name;
        cases.push_back({name, [cfg = std::move(cfg)] {
                             return test::runPinned(cfg, cfg.recovery);
                         }});
    }
    return cases;
}

const auto caseName = [](const auto &info) { return info.param.name; };

class WorkloadDeterminism
    : public ::testing::TestWithParam<DeterminismCase>
{
};

} // namespace

TEST_P(WorkloadDeterminism, IdenticalAcrossRuns)
{
    setVerbose(false);
    EXPECT_EQ(GetParam().run(), GetParam().run());
}

INSTANTIATE_TEST_SUITE_P(FourRepresentatives, WorkloadDeterminism,
                         ::testing::Values(representative("BFS"),
                                           representative("MatrixMul"),
                                           representative("BitonicSort"),
                                           representative("Libor")),
                         caseName);

INSTANTIATE_TEST_SUITE_P(PinnedConfigs, WorkloadDeterminism,
                         ::testing::ValuesIn(pinnedCases()), caseName);

class AlternateSizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AlternateSizes, WorkloadsVerifyAtOtherScales)
{
    setVerbose(false);
    const unsigned scale = GetParam();
    auto cfg = arch::GpuConfig::testDefault();
    using namespace workloads;
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeBfs(scale));
    ws.push_back(makeScan(scale));
    ws.push_back(makeRadixSort(scale));
    ws.push_back(makeSha(scale));
    ws.push_back(makeFft(scale));
    ws.push_back(makeMatrixMul(32 * scale));
    for (auto &w : ws) {
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
        const auto r = runVerified(*w, g);
        EXPECT_EQ(r.dmr.errorsDetected, 0u) << w->name();
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, AlternateSizes,
                         ::testing::Values(1u, 3u));

TEST(Accounting, VerifiedNeverExceedsIssuedThreadInstrs)
{
    setVerbose(false);
    for (const char *name : {"SCAN", "MUM", "Laplace"}) {
        auto cfg = arch::GpuConfig::testDefault();
        auto w = workloads::makeByName(name);
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
        const auto r = workloads::run(*w, g);
        EXPECT_LE(r.dmr.verifiableThreadInstrs, r.issuedThreadInstrs)
            << name;
        EXPECT_LE(r.dmr.verifiedThreadInstrs,
                  r.dmr.verifiableThreadInstrs)
            << name;
        // Every verification implies at least one comparison.
        EXPECT_GE(r.dmr.comparisons, r.dmr.verifiedThreadInstrs)
            << name;
    }
}

TEST(EightLaneCluster, SuiteSubsetVerifies)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.lanesPerCluster = 8;
    std::vector<std::unique_ptr<workloads::Workload>> ws;
    ws.push_back(workloads::makeBfs(2));
    ws.push_back(workloads::makeMatrixMul(64));
    ws.push_back(workloads::makeBitonicSort(2));
    ws.push_back(workloads::makeFft(2));
    for (auto &w : ws) {
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
        const auto r = workloads::runVerified(*w, g);
        EXPECT_EQ(r.dmr.errorsDetected, 0u) << w->name();
        EXPECT_GT(r.coverage(), 0.4) << w->name();
    }
}
