/**
 * @file
 * Unit + integration tests for the protection seam: the scheme
 * registry's strict name table, the Original backend's zero-footprint
 * contract (no recovery-listener traffic, no stalls, no stats), and
 * the Partial-Thread degeneracy — at protectFraction 1.0 it must be
 * indistinguishable from Warped-DMR, campaign report included.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/logging.hh"
#include "dmr/recovery_listener.hh"
#include "fault/campaign_engine.hh"
#include "func/executor.hh"
#include "gpu/gpu.hh"
#include "func/fault_hook.hh"
#include "mem/memory.hh"
#include "protection/scheme_registry.hh"
#include "workloads/workload.hh"

using namespace warped;
using protection::SchemeConfig;
using protection::SchemeId;

namespace {

struct SchemeFixture : ::testing::Test
{
    SchemeFixture()
        : cfg(arch::GpuConfig::testDefault()), global(4096),
          exec(cfg, 0, global, func::NullFaultHook::instance())
    {
        setVerbose(false);
    }

    std::unique_ptr<protection::ProtectionScheme>
    make(SchemeId id, double frac = 1.0)
    {
        return protection::makeScheme({id, frac}, cfg,
                                      dmr::DmrConfig::paperDefault(),
                                      exec, 1);
    }

    /** A synthetic executed instruction with plausible payloads. */
    func::ExecRecord
    rec(isa::Opcode op, unsigned active_count = 32)
    {
        func::ExecRecord r;
        r.instr.op = op;
        r.instr.dst = isa::Reg{1};
        r.instr.src[0] = isa::Reg{2};
        for (unsigned s = 0; s < active_count; ++s)
            r.active.set(s);
        for (unsigned s = 0; s < 32; ++s) {
            r.operands[0][s] = s + 1;
            r.operands[1][s] = 7;
            std::array<RegValue, 3> ops = {r.operands[0][s],
                                           r.operands[1][s], 0};
            r.results[s] = func::Executor::computeLane(
                r.instr, ops, r.laneInfo[s]);
        }
        return r;
    }

    arch::GpuConfig cfg;
    mem::Memory global;
    func::Executor exec;
};

/** Counts every listener callback; the Original scheme must make
 *  none (nothing is ever verified OR retired-unprotected: there is
 *  no detection signal for recovery to act on). */
struct CountingListener final : dmr::RecoveryListener
{
    unsigned verified = 0, unprotected = 0;
    void
    onVerified(const func::ExecRecord &, bool, Cycle) override
    {
        ++verified;
    }
    void
    onUnprotected(const func::ExecRecord &) override
    {
        ++unprotected;
    }
};

} // namespace

TEST(SchemeRegistry, RoundTripsEveryCliName)
{
    const auto all = protection::allSchemes();
    EXPECT_EQ(all.size(), protection::kNumSchemes);
    for (const auto id : all) {
        const auto back =
            protection::schemeFromName(protection::schemeCliName(id));
        ASSERT_TRUE(back.has_value())
            << protection::schemeCliName(id);
        EXPECT_EQ(*back, id);
    }
}

TEST(SchemeRegistry, EnumOrderStartsAtOriginal)
{
    // The sweep relies on Original running first to anchor the
    // overhead baseline.
    EXPECT_EQ(protection::allSchemes().front(), SchemeId::Original);
}

TEST(SchemeRegistry, RejectsNonCanonicalNames)
{
    using protection::schemeFromName;
    EXPECT_FALSE(schemeFromName(""));
    EXPECT_FALSE(schemeFromName("warped"));       // no prefixes
    EXPECT_FALSE(schemeFromName("warped-dmr "));  // no trailing junk
    EXPECT_FALSE(schemeFromName("Warped-DMR"));   // display name
    EXPECT_FALSE(schemeFromName("WARPED-DMR"));   // no case folding
    EXPECT_FALSE(schemeFromName("rthread"));      // exact slug only
    EXPECT_FALSE(schemeFromName("dmr"));
}

TEST(SchemeNames, AllDistinct)
{
    using protection::schemeDisplayName;
    EXPECT_STREQ(schemeDisplayName(SchemeId::Original), "Original");
    EXPECT_STREQ(schemeDisplayName(SchemeId::RNaive), "R-Naive");
    EXPECT_STREQ(schemeDisplayName(SchemeId::RThread), "R-Thread");
    EXPECT_STREQ(schemeDisplayName(SchemeId::Dmtr), "DMTR");
    EXPECT_STREQ(schemeDisplayName(SchemeId::WarpedDmr), "Warped-DMR");
    std::set<std::string> names;
    for (const auto id : protection::allSchemes())
        names.insert(schemeDisplayName(id));
    EXPECT_EQ(names.size(), protection::kNumSchemes);
}

TEST_F(SchemeFixture, FactoryAgreesWithRecoveryTable)
{
    for (const auto id : protection::allSchemes()) {
        const auto s = make(id);
        EXPECT_EQ(s->id(), id) << protection::schemeCliName(id);
        EXPECT_EQ(s->supportsRecovery(),
                  protection::schemeSupportsRecovery(id))
            << protection::schemeCliName(id);
    }
}

TEST_F(SchemeFixture, OriginalNeverTouchesTheRecoveryListener)
{
    const auto s = make(SchemeId::Original);
    CountingListener listener;
    s->attachRecoveryListener(&listener);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(s->onIssue(rec(isa::Opcode::IADD), i), 0u);
        s->onIdleCycle(i, false);
    }
    EXPECT_EQ(s->drainAll(64), 0u);
    EXPECT_EQ(listener.verified, 0u);
    EXPECT_EQ(listener.unprotected, 0u);
    EXPECT_EQ(s->stats().comparisons, 0u);
    EXPECT_EQ(s->stats().verifiableThreadInstrs, 0u);
    EXPECT_FALSE(s->hasPending());
}

TEST_F(SchemeFixture, SoftwareSchemesReportListenerTraffic)
{
    // Contrast with Original: R-Naive verifies (onVerified) and
    // reports non-verifiable records (onUnprotected).
    const auto s = make(SchemeId::RNaive);
    CountingListener listener;
    s->attachRecoveryListener(&listener);
    s->onIssue(rec(isa::Opcode::IADD), 0);
    s->onIssue(rec(isa::Opcode::BAR), 1); // control flow: unverifiable
    EXPECT_EQ(listener.verified, 1u);
    EXPECT_EQ(listener.unprotected, 1u);
}

TEST(PartialThread, FullFractionMatchesWarpedDmrCampaign)
{
    // At protectFraction 1.0 every active slot is protected, so the
    // Partial-Thread backend must delegate every issue to the wrapped
    // DmrEngine and produce the SAME seeded campaign — same detection
    // set, same latencies, same outcome split — as plain Warped-DMR.
    setVerbose(false);
    const auto campaign = [](SchemeId id) {
        fault::EngineConfig ec;
        ec.workload = "SCAN";
        ec.gpu = arch::GpuConfig::testDefault();
        ec.gpu.numSms = 2;
        ec.sites = 1000;
        ec.seed = 42;
        ec.jobs = 0;
        ec.scheme = SchemeConfig{id, 1.0};
        fault::CampaignEngine engine(
            [] { return workloads::makeByNameSized("SCAN", 2); }, ec);
        return engine.run();
    };
    const auto a = campaign(SchemeId::WarpedDmr);
    const auto b = campaign(SchemeId::PartialThread);

    // Whole-report comparison via the additive counts (the outcome
    // split, per-kind/per-unit splits and latency histogram); the
    // scheme identity is echo, not a count, so it is not among them.
    EXPECT_EQ(a.span, b.span);
    EXPECT_EQ(a.counters(), b.counters());
}

TEST(PartialThread, HalfFractionCoversLessThanFull)
{
    setVerbose(false);
    const auto launch = [](double frac) {
        auto w = workloads::makeByNameSized("SCAN", 2);
        auto cfg = arch::GpuConfig::testDefault();
        cfg.numSms = 2;
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault(), 1, nullptr,
                   {}, SchemeConfig{SchemeId::PartialThread, frac});
        return workloads::runVerified(*w, g);
    };
    const auto half = launch(0.5);
    const auto full = launch(1.0);
    EXPECT_GT(full.dmr.verifiedThreadInstrs, 0u);
    EXPECT_GT(half.dmr.verifiedThreadInstrs, 0u);
    EXPECT_LT(half.dmr.verifiedThreadInstrs,
              full.dmr.verifiedThreadInstrs);
}
