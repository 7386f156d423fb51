/**
 * @file
 * Unit tests: fault models, the injector's matching rules and
 * liveness, and small stuck-at and transient campaigns on the
 * campaign engine (activation, detection, latency, determinism).
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/campaign_engine.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu.hh"
#include "workloads/workload.hh"

using namespace warped;
using namespace warped::fault;

namespace {

func::FaultCtx
ctx(unsigned sm, unsigned lane, isa::UnitType unit = isa::UnitType::SP,
    Cycle cycle = 0)
{
    func::FaultCtx c;
    c.sm = sm;
    c.lane = lane;
    c.unit = unit;
    c.cycle = cycle;
    return c;
}

} // namespace

TEST(FaultInjector, TransientFlipsOnlyInWindow)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::TransientBitFlip;
    s.sm = 0;
    s.lane = 3;
    s.bit = 4;
    s.cycleBegin = 100;
    s.cycleEnd = 100;
    inj.add(s);

    EXPECT_EQ(inj.apply(0, ctx(0, 3, isa::UnitType::SP, 99)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(0, 3, isa::UnitType::SP, 100)), 16u);
    EXPECT_EQ(inj.apply(0, ctx(0, 3, isa::UnitType::SP, 101)), 0u);
    EXPECT_EQ(inj.activations(), 1u);
}

TEST(FaultInjector, StuckAtSemantics)
{
    FaultInjector inj;
    FaultSpec s0;
    s0.kind = FaultKind::StuckAtZero;
    s0.lane = 1;
    s0.bit = 0;
    inj.add(s0);
    EXPECT_EQ(inj.apply(0xFF, ctx(0, 1)), 0xFEu);
    EXPECT_EQ(inj.apply(0xFE, ctx(0, 1)), 0xFEu); // no change, benign

    FaultInjector inj1;
    FaultSpec s1;
    s1.kind = FaultKind::StuckAtOne;
    s1.lane = 1;
    s1.bit = 7;
    inj1.add(s1);
    EXPECT_EQ(inj1.apply(0, ctx(0, 1)), 0x80u);
}

TEST(FaultInjector, LocationMatteringSmLaneUnit)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::StuckAtOne;
    s.sm = 2;
    s.lane = 5;
    s.bit = 0;
    s.unit = isa::UnitType::SFU;
    inj.add(s);

    // Wrong SM, lane or unit: untouched.
    EXPECT_EQ(inj.apply(0, ctx(1, 5, isa::UnitType::SFU)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(2, 6, isa::UnitType::SFU)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(2, 5, isa::UnitType::SP)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(2, 5, isa::UnitType::SFU)), 1u);
}

TEST(FaultInjector, ActivationCountsOnlyRealChanges)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::StuckAtOne;
    s.lane = 0;
    s.bit = 0;
    inj.add(s);
    inj.apply(1, ctx(0, 0)); // already 1: no change
    EXPECT_EQ(inj.activations(), 0u);
    inj.apply(0, ctx(0, 0));
    EXPECT_EQ(inj.activations(), 1u);
    inj.clear();
    EXPECT_EQ(inj.activations(), 0u);
    EXPECT_EQ(inj.apply(0, ctx(0, 0)), 0u); // fault removed
}

TEST(FaultInjector, MultipleFaultsCompose)
{
    FaultInjector inj;
    FaultSpec a;
    a.kind = FaultKind::StuckAtOne;
    a.lane = 0;
    a.bit = 0;
    FaultSpec b;
    b.kind = FaultKind::StuckAtOne;
    b.lane = 0;
    b.bit = 1;
    inj.add(a);
    inj.add(b);
    EXPECT_EQ(inj.apply(0, ctx(0, 0)), 3u);
}

namespace
{

/** A small stuck-at-one campaign on SCAN over a two-SM machine. */
EngineConfig
scanStuckAt(std::uint64_t sites)
{
    setVerbose(false);
    EngineConfig ec;
    ec.workload = "SCAN";
    ec.gpu.numSms = 2;
    ec.space.kinds = {FaultKind::StuckAtOne};
    ec.sites = sites;
    return ec;
}

WorkloadFactory
scan()
{
    return [] { return workloads::makeScan(1); };
}

} // namespace

TEST(Campaign, FaultFreeBaselineIsAllBenign)
{
    // Stuck-at faults restricted to the SFU on a workload with no SFU
    // instructions: every site is masked because none ever activates.
    auto ec = scanStuckAt(5);
    ec.space.units = {isa::UnitType::SFU};
    const auto rep = CampaignEngine(scan(), ec).run();
    EXPECT_EQ(rep.sampled, 5u);
    EXPECT_EQ(rep.overall.masked, 5u);
    EXPECT_EQ(rep.overall.notActivated, 5u);
    EXPECT_DOUBLE_EQ(rep.overall.detectionRate(), 1.0);
}

TEST(Campaign, DetectsStuckAtFaultsWithProtection)
{
    const auto rep = CampaignEngine(scan(), scanStuckAt(8)).run();
    const auto &o = rep.overall;
    EXPECT_GT(o.total() - o.notActivated, 0u);
    EXPECT_EQ(o.sdc, 0u) << "silent corruption under full protection";
}

TEST(Campaign, UnprotectedMachineProducesSdc)
{
    auto ec = scanStuckAt(8);
    ec.dmr = dmr::DmrConfig::off();
    const auto rep = CampaignEngine(scan(), ec).run();
    EXPECT_EQ(rep.overall.detected, 0u);
    EXPECT_GT(rep.overall.sdc + rep.overall.due, 0u);
}

TEST(Campaign, DetectionLatencyIsTinyVsKernelLength)
{
    auto ec = scanStuckAt(6);
    ec.workload = "SHA";
    const auto rep =
        CampaignEngine([] { return workloads::makeSha(1); }, ec).run();
    ASSERT_GT(rep.overall.detected, 0u);
    ASSERT_GT(rep.latencyCount, 0u);
    // Warped-DMR raises the alarm within a few pipeline lengths of
    // the first corrupted value; software schemes wait for the
    // kernel to finish.
    EXPECT_LT(rep.meanDetectionLatency(), 100.0);
    EXPECT_GT(double(rep.kernelLengthSum) / rep.latencyCount,
              10.0 * rep.meanDetectionLatency());
}

TEST(Campaign, ParallelCampaignIsBitIdenticalToSequential)
{
    auto ec = scanStuckAt(6);
    ec.seed = 1234;
    ec.jobs = 1;
    const auto seq = CampaignEngine(scan(), ec).run().toJson();
    ec.jobs = 8;
    EXPECT_EQ(seq, CampaignEngine(scan(), ec).run().toJson());
}

TEST(Campaign, MasterSeedSelectsTheFaultSet)
{
    auto ec = scanStuckAt(4);
    ec.space.kinds = {FaultKind::TransientBitFlip};
    ec.jobs = 2;
    ec.seed = 1;
    const auto a = CampaignEngine(scan(), ec).run().toJson();
    // Same master seed -> identical campaign, even across pools.
    EXPECT_EQ(a, CampaignEngine(scan(), ec).run().toJson());
}

TEST(FaultInjector, FirstActivationCycleIsRecorded)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::StuckAtOne;
    s.lane = 0;
    s.bit = 0;
    inj.add(s);
    func::FaultCtx c;
    c.lane = 0;
    c.cycle = 41;
    inj.apply(1, c); // no change
    c.cycle = 42;
    inj.apply(0, c); // first real activation
    c.cycle = 99;
    inj.apply(0, c);
    EXPECT_EQ(inj.firstActivationCycle(), 42u);
}

TEST(RandomFaultHook, RateZeroIsClean)
{
    RandomFaultHook h(0.0, 1);
    func::FaultCtx c;
    for (unsigned i = 0; i < 1000; ++i)
        EXPECT_EQ(h.apply(i, c), i);
    EXPECT_EQ(h.activations(), 0u);
}

TEST(RandomFaultHook, RateScalesActivations)
{
    func::FaultCtx c;
    RandomFaultHook lo(0.001, 7), hi(0.1, 7);
    for (unsigned i = 0; i < 20000; ++i) {
        lo.apply(i, c);
        hi.apply(i, c);
    }
    EXPECT_GT(hi.activations(), 10 * lo.activations());
    // Corruption is a single bit flip.
    RandomFaultHook always(1.0, 3);
    const auto v = always.apply(0, c);
    EXPECT_EQ(std::popcount(v), 1);
}

TEST(RandomFaultHook, ResetRestoresConstructionState)
{
    // Regression: a hook reused across launches kept its RNG position
    // and leaked the previous run's activation count.
    func::FaultCtx c;
    RandomFaultHook h(0.05, 11);
    std::vector<RegValue> first;
    for (unsigned i = 0; i < 500; ++i)
        first.push_back(h.apply(i, c));
    const auto acts = h.activations();
    EXPECT_GT(acts, 0u);

    h.reset();
    EXPECT_EQ(h.activations(), 0u);
    for (unsigned i = 0; i < 500; ++i)
        EXPECT_EQ(h.apply(i, c), first[i]);
    EXPECT_EQ(h.activations(), acts);
}

// ---------------------------------------------------------------------
// FaultHook::liveAt — the promise behind the dormant-hook fast path.

TEST(FaultHookLiveness, DormantInjectorIsIdentityWithoutSideEffects)
{
    // Property: !liveAt(sm, cycle) implies apply(x, ctx) == x and no
    // change to the activation bookkeeping, for any spec mix and any
    // context on that SM and cycle.
    Rng rng(2024);
    unsigned dormant = 0, live = 0;
    for (unsigned trial = 0; trial < 400; ++trial) {
        FaultInjector inj;
        const auto nspecs = 1 + rng.nextBelow(3);
        for (unsigned k = 0; k < nspecs; ++k) {
            FaultSpec s;
            s.kind = static_cast<FaultKind>(rng.nextBelow(3));
            s.sm = static_cast<unsigned>(rng.nextBelow(4));
            s.lane = static_cast<unsigned>(rng.nextBelow(32));
            s.bit = static_cast<unsigned>(rng.nextBelow(32));
            if (s.kind == FaultKind::TransientBitFlip || rng.nextBool()) {
                s.cycleBegin = rng.nextBelow(64);
                s.cycleEnd = s.cycleBegin + rng.nextBelow(4);
            }
            if (rng.nextBool())
                s.unit = static_cast<isa::UnitType>(
                    rng.nextBelow(isa::kNumUnitTypes));
            inj.add(s);
        }
        for (unsigned k = 0; k < 200; ++k) {
            func::FaultCtx c;
            c.sm = static_cast<unsigned>(rng.nextBelow(4));
            c.lane = static_cast<unsigned>(rng.nextBelow(32));
            c.unit = static_cast<isa::UnitType>(
                rng.nextBelow(isa::kNumUnitTypes));
            c.cycle = rng.nextBelow(80);
            c.isAddress = rng.nextBool();
            const auto x = static_cast<RegValue>(rng.next());
            if (inj.liveAt(c.sm, c.cycle)) {
                ++live;
                inj.apply(x, c);
                continue;
            }
            ++dormant;
            const auto acts = inj.activations();
            const auto first = inj.firstActivationCycle();
            ASSERT_EQ(inj.apply(x, c), x);
            ASSERT_EQ(inj.activations(), acts);
            ASSERT_EQ(inj.firstActivationCycle(), first);
        }
    }
    EXPECT_GT(dormant, 1000u);
    EXPECT_GT(live, 1000u);
}

TEST(FaultHookLiveness, InjectorIsLiveOnlyOnItsSmInsideItsWindow)
{
    FaultInjector inj;
    EXPECT_FALSE(inj.liveAt(0, 0)); // no faults at all
    EXPECT_TRUE(inj.windowsClosedBy(0));
    FaultSpec s;
    s.sm = 2;
    s.cycleBegin = 10;
    s.cycleEnd = 12;
    inj.add(s);
    EXPECT_FALSE(inj.liveAt(2, 9));
    EXPECT_TRUE(inj.liveAt(2, 10));
    EXPECT_TRUE(inj.liveAt(2, 12));
    EXPECT_FALSE(inj.liveAt(2, 13));
    EXPECT_FALSE(inj.liveAt(1, 11));
    EXPECT_FALSE(inj.windowsClosedBy(11));
    EXPECT_TRUE(inj.windowsClosedBy(12));

    FaultSpec stuck; // whole-run window: never closes
    stuck.kind = FaultKind::StuckAtOne;
    inj.add(stuck);
    EXPECT_TRUE(inj.liveAt(0, 123456));
    EXPECT_FALSE(inj.windowsClosedBy(~Cycle{0} - 1));
}

TEST(FaultHookLiveness, NullNeverLiveRandomAlwaysLive)
{
    Rng rng(9);
    RandomFaultHook random(0.0, 1);
    for (unsigned k = 0; k < 1000; ++k) {
        const auto sm = static_cast<unsigned>(rng.nextBelow(64));
        const Cycle cycle = rng.next();
        EXPECT_FALSE(func::NullFaultHook::instance().liveAt(sm, cycle));
        EXPECT_TRUE(random.liveAt(sm, cycle));
    }
}

TEST(FaultHookLiveness, DormantInjectorLaunchMatchesNullHook)
{
    // A FaultInjector whose only window is on an SM the machine does
    // not have, or after the run ends, is dormant on every cycle: the
    // launch takes the null hook's plane paths and must report the
    // same counters, byte for byte.
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 4;
    const auto launch = [&](func::FaultHook *hook) {
        auto w = workloads::makeMatrixMul(32);
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault(), 1, hook);
        w->setup(g);
        const auto r =
            g.launch(w->program(), w->gridBlocks(), w->blockThreads());
        EXPECT_TRUE(w->verify(g));
        return r;
    };
    const auto golden = launch(nullptr);

    FaultSpec elsewhere;
    elsewhere.kind = FaultKind::StuckAtOne;
    elsewhere.sm = cfg.numSms; // no such SM
    FaultSpec late;
    late.kind = FaultKind::TransientBitFlip;
    late.cycleBegin = late.cycleEnd = golden.cycles * 10;
    for (const auto &spec : {elsewhere, late}) {
        FaultInjector inj;
        inj.add(spec);
        const auto r = launch(&inj);
        EXPECT_EQ(inj.activations(), 0u);
        EXPECT_EQ(r.metrics.toJson(), golden.metrics.toJson());
        EXPECT_TRUE(r.dmr.errorLog.empty());
    }
}
