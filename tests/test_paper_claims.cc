/**
 * @file
 * Executable paper-shape claims: the qualitative results EXPERIMENTS.md
 * reports, asserted at test scale so a regression that silently breaks
 * a headline reproduction fails CI rather than only showing up when
 * someone rereads the bench output.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "dmr/rfu.hh"
#include "power/power_model.hh"
#include "redundancy/scheme.hh"
#include "workloads/workload.hh"

using namespace warped;

namespace {

arch::GpuConfig
claimCfg()
{
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 4;
    return cfg;
}

gpu::LaunchResult
runCfg(const std::string &name, const dmr::DmrConfig &d)
{
    auto w = workloads::makeByNameScaled(name, 1);
    gpu::Gpu g(claimCfg(), d);
    return workloads::runVerified(*w, g);
}

} // namespace

TEST(PaperClaims, Fig1_UnderutilizationSpectrum)
{
    setVerbose(false);
    // BFS's fully-active fraction is far below MatrixMul's (which is
    // exactly 1.0) — the two ends of Fig 1.
    const auto bfs = runCfg("BFS", dmr::DmrConfig::off());
    const auto mm = runCfg("MatrixMul", dmr::DmrConfig::off());
    EXPECT_LT(bfs.activeHist.rangeFraction(32, 32), 0.5);
    EXPECT_DOUBLE_EQ(mm.activeHist.rangeFraction(32, 32), 1.0);
}

TEST(PaperClaims, Fig9a_MappingOrderingOnAverage)
{
    setVerbose(false);
    const char *names[] = {"BFS", "MUM", "SCAN", "CUFFT",
                           "BitonicSort"};
    double lin = 0, cross = 0;
    for (auto *n : names) {
        lin += runCfg(n, dmr::DmrConfig::baselineMapping()).coverage();
        cross += runCfg(n, dmr::DmrConfig::paperDefault()).coverage();
    }
    EXPECT_GT(cross, lin) << "cross mapping must win on average";
}

TEST(PaperClaims, Fig9b_OverheadFallsWithReplayQ)
{
    setVerbose(false);
    // Paper-like occupancy (one block per SM): oversubscribing the
    // chip starves inter-warp DMR of idle slots and pushes overhead
    // toward its theoretical 2x bound regardless of queue size.
    auto run = [&](const dmr::DmrConfig &d) {
        auto w = workloads::makeMatrixMul(64);
        gpu::Gpu g(claimCfg(), d);
        return workloads::runVerified(*w, g).cycles;
    };
    const double base = double(run(dmr::DmrConfig::off()));
    double prev = 1e9;
    for (unsigned q : {0u, 5u, 10u}) {
        auto d = dmr::DmrConfig::paperDefault();
        d.replayQSize = q;
        const double norm = double(run(d)) / base;
        EXPECT_LE(norm, prev * 1.01) << "q=" << q;
        prev = norm;
    }
    // Absolute overhead depends on occupancy and memory latencies;
    // the invariant is monotone improvement and staying well below
    // the 2x temporal-DMR bound.
    EXPECT_LT(prev, 1.80);
}

TEST(PaperClaims, Fig9b_UnderutilizedWorkloadsAreFree)
{
    setVerbose(false);
    // Nqueen is the deepest-divergence workload: almost everything is
    // intra-warp covered for free, so even a zero-entry ReplayQ costs
    // nearly nothing (Fig 9b's BFS-class rows).
    const auto base = runCfg("Nqueen", dmr::DmrConfig::off());
    auto d = dmr::DmrConfig::paperDefault();
    d.replayQSize = 0;
    const auto r = runCfg("Nqueen", d);
    EXPECT_LT(double(r.cycles) / double(base.cycles), 1.10);
}

TEST(PaperClaims, Fig10_SchemeOrdering)
{
    setVerbose(false);
    using protection::SchemeId;
    const auto cfg = claimCfg();
    const auto orig =
        redundancy::runScheme(SchemeId::Original, "SCAN", cfg);
    const auto naive =
        redundancy::runScheme(SchemeId::RNaive, "SCAN", cfg);
    const auto rthr =
        redundancy::runScheme(SchemeId::RThread, "SCAN", cfg);
    const auto warped =
        redundancy::runScheme(SchemeId::WarpedDmr, "SCAN", cfg);
    EXPECT_GT(naive.totalNs(), rthr.totalNs());
    EXPECT_GT(rthr.totalNs(), warped.totalNs());
    EXPECT_GE(warped.totalNs(), orig.totalNs() * 0.999);
}

TEST(PaperClaims, Fig11_PowerAndEnergyRise)
{
    setVerbose(false);
    power::PowerModel pm(claimCfg());
    const auto base = runCfg("SCAN", dmr::DmrConfig::off());
    const auto prot = runCfg("SCAN", dmr::DmrConfig::paperDefault());
    const double p = pm.estimate(prot).total() /
                     pm.estimate(base).total();
    const double e = pm.energyMj(prot) / pm.energyMj(base);
    EXPECT_GT(p, 1.0);
    EXPECT_LT(p, 1.5);
    EXPECT_GT(e, p * 0.99); // energy rises at least as much as power
}

TEST(PaperClaims, Headline_CoverageMatchesPaperWithinTolerance)
{
    setVerbose(false);
    // Paper §6: 96.43 % average error coverage. Asserted from the
    // metrics registry — the same surface the exporters and golden
    // traces consume — not recomputed ad hoc, and against the paper
    // figure with an explicit tolerance: the representative 8-workload
    // mix at test scale averages within two points of paper scale
    // (measured 96.89 % on the seed).
    constexpr double kPaperCoverage = 0.9643;
    constexpr double kCoverageTolerance = 0.02;

    const char *names[] = {"BFS", "SCAN", "MatrixMul", "SHA",
                           "Libor", "RadixSort", "CUFFT", "MUM"};
    double sum = 0;
    for (auto *n : names) {
        const auto r = runCfg(n, dmr::DmrConfig::paperDefault());
        const double cov = r.metrics.gaugeValue("dmr.coverage");
        // The registry is derived from the folded DmrStats; it must
        // agree exactly with the LaunchResult's own accessor.
        EXPECT_DOUBLE_EQ(cov, r.coverage()) << n;
        sum += cov;
    }
    EXPECT_NEAR(sum / std::size(names), kPaperCoverage,
                kCoverageTolerance);
}

TEST(PaperClaims, Headline_OverheadNearPaperOnIntraDominatedMix)
{
    setVerbose(false);
    // Paper §6: 16 % average performance overhead. Our 4-SM test
    // grids oversubscribe the chip, which inflates inter-warp DMR
    // cost for dense workloads (see Fig9b tests); the workloads whose
    // coverage is dominated by *intra*-warp DMR (the divergent BFS /
    // MUM class) reproduce the paper's overhead directly, so those
    // carry the explicit-tolerance assertion. Cycle counts come from
    // the metrics registry, not from the raw LaunchResult.
    constexpr double kPaperOverhead = 0.16;
    constexpr double kOverheadTolerance = 0.08;

    for (const char *n : {"BFS", "MUM"}) {
        const auto off = runCfg(n, dmr::DmrConfig::off());
        const auto on = runCfg(n, dmr::DmrConfig::paperDefault());
        const auto base = off.metrics.counterValue("sim.cycles");
        const auto prot = on.metrics.counterValue("sim.cycles");
        ASSERT_GT(base, 0u);
        EXPECT_EQ(base, off.cycles) << n; // registry agrees w/ result
        const double overhead = double(prot) / double(base) - 1.0;
        EXPECT_NEAR(overhead, kPaperOverhead, kOverheadTolerance)
            << n;
    }
}

TEST(PaperClaims, Table1_RfuIsTheXorNetwork)
{
    // Asserted exhaustively in test_rfu; here the single line the
    // paper prints: the first two priority rows.
    using dmr::Rfu;
    EXPECT_EQ(Rfu::priority(0, 1), 1u);
    EXPECT_EQ(Rfu::priority(1, 1), 0u);
    EXPECT_EQ(Rfu::priority(2, 1), 3u);
    EXPECT_EQ(Rfu::priority(3, 1), 2u);
}
