/**
 * @file
 * Tests for the rollback-replay recovery engine: configuration
 * validation, checkpoint-ring mechanics, the Recovered outcome
 * classification, the recovery-disabled byte-identity guarantee, and
 * end-to-end fault repair / graceful give-up on real workloads.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "arch/gpu_config.hh"
#include "common/logging.hh"
#include "dmr/dmr_config.hh"
#include "fault/campaign_engine.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu.hh"
#include "recovery/checkpoint_ring.hh"
#include "recovery/recovery_config.hh"
#include "workloads/workload.hh"

using namespace warped;

namespace {

gpu::LaunchResult
runWorkload(workloads::Workload &w, gpu::Gpu &g, Cycle cap = 0)
{
    w.setup(g);
    return g.launch(w.program(), w.gridBlocks(), w.blockThreads(),
                    cap);
}

} // namespace

// ---------------------------------------------------------------------
// recovery/recovery_config.hh

TEST(RecoveryConfig, DefaultsAndPresets)
{
    const recovery::RecoveryConfig def;
    EXPECT_FALSE(def.enabled);
    EXPECT_FALSE(recovery::RecoveryConfig::off().enabled);
    const auto paper = recovery::RecoveryConfig::paperDefault();
    EXPECT_TRUE(paper.enabled);
    EXPECT_GT(paper.retryBudget, 0u);
    EXPECT_GT(paper.ringCapacity, 0u);
}

TEST(RecoveryConfig, EnabledWithoutRingPanics)
{
    recovery::RecoveryConfig rc = recovery::RecoveryConfig::paperDefault();
    rc.ringCapacity = 0;
    EXPECT_THROW(rc.validate(), std::logic_error);
}

TEST(RecoveryConfig, GpuRefusesRecoveryWithoutDmr)
{
    // There is no detection signal to recover from with DMR off:
    // that configuration is a user error, not a silent no-op.
    EXPECT_THROW(gpu::Gpu(arch::GpuConfig::testDefault(),
                          dmr::DmrConfig::off(), 1, nullptr,
                          recovery::RecoveryConfig::paperDefault()),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// recovery/checkpoint_ring.hh

TEST(CheckpointRing, EvictsTheLongestChainFront)
{
    recovery::CheckpointRing ring(2, 3);
    bool evicted = false;
    ring.push(0, evicted).traceId = 1;
    ring.push(0, evicted).traceId = 2;
    ring.push(1, evicted).traceId = 3;
    EXPECT_FALSE(evicted);
    EXPECT_EQ(ring.totalSize(), 3u);

    // Full: the next push evicts warp 0's front (longest chain).
    ring.push(1, evicted).traceId = 4;
    EXPECT_TRUE(evicted);
    EXPECT_EQ(ring.totalSize(), 3u);
    ASSERT_EQ(ring.chain(0).size(), 1u);
    EXPECT_EQ(ring.chain(0).front().traceId, 2u);
}

TEST(CheckpointRing, PopClearedDropsOnlyThePrefix)
{
    recovery::CheckpointRing ring(1, 8);
    bool evicted = false;
    ring.push(0, evicted).traceId = 1;
    ring.push(0, evicted).traceId = 2;
    ring.push(0, evicted).traceId = 3;
    ring.chain(0)[0].cleared = true;
    ring.chain(0)[2].cleared = true; // not a prefix: must stay
    ring.popCleared(0);
    ASSERT_EQ(ring.chain(0).size(), 2u);
    EXPECT_EQ(ring.chain(0).front().traceId, 2u);
    EXPECT_TRUE(ring.hasUnverified(0));

    ring.chain(0)[0].cleared = true;
    ring.popCleared(0);
    EXPECT_EQ(ring.chain(0).size(), 0u);
    EXPECT_EQ(ring.totalSize(), 0u);
    EXPECT_FALSE(ring.hasUnverified(0));
}

TEST(CheckpointRing, TrimFromErasesTheBack)
{
    recovery::CheckpointRing ring(1, 8);
    bool evicted = false;
    for (std::uint64_t t = 1; t <= 5; ++t)
        ring.push(0, evicted).traceId = t;
    ring.trimFrom(0, 2);
    ASSERT_EQ(ring.chain(0).size(), 2u);
    EXPECT_EQ(ring.chain(0).back().traceId, 2u);
    EXPECT_EQ(ring.totalSize(), 2u);
}

// ---------------------------------------------------------------------
// outcome classification

TEST(Outcome, RecoveredClassification)
{
    using fault::OutcomeClass;
    using fault::classifyOutcome;
    // The full repair: detected, finished, output golden, no give-up.
    EXPECT_EQ(classifyOutcome(true, true, false, true, true),
              OutcomeClass::Recovered);
    // Anything less stays Detected.
    EXPECT_EQ(classifyOutcome(true, true, false, false, true),
              OutcomeClass::Detected);
    EXPECT_EQ(classifyOutcome(true, true, true, true, true),
              OutcomeClass::Detected);
    EXPECT_EQ(classifyOutcome(true, true, false, true, false),
              OutcomeClass::Detected);
    // recovered_clean never rescues an undetected corruption: SDC is
    // only reachable from the !detected branch.
    EXPECT_EQ(classifyOutcome(true, false, false, false, true),
              OutcomeClass::Sdc);
    EXPECT_EQ(classifyOutcome(false, false, false, true, true),
              OutcomeClass::Masked);
    EXPECT_STREQ(fault::outcomeClassName(OutcomeClass::Recovered),
                 "recovered");
}

TEST(Outcome, RecoveredCountsTowardCoverage)
{
    fault::OutcomeCounts c;
    c.add(fault::OutcomeClass::Detected, true);
    c.add(fault::OutcomeClass::Recovered, true);
    c.add(fault::OutcomeClass::Sdc, true);
    c.add(fault::OutcomeClass::Masked, false);
    EXPECT_EQ(c.total(), 4u);
    // A recovered run was a detected run first.
    EXPECT_DOUBLE_EQ(c.coverage(), 2.0 / 4.0);
    EXPECT_DOUBLE_EQ(c.detectionRate(), 2.0 / 3.0);
}

// ---------------------------------------------------------------------
// the byte-identity guarantee: recovery off changes nothing

TEST(Recovery, DisabledPathIsByteIdentical)
{
    auto w1 = workloads::makeScan(2);
    gpu::Gpu g1(arch::GpuConfig::testDefault(),
                dmr::DmrConfig::paperDefault());
    const auto r1 = runWorkload(*w1, g1);

    auto w2 = workloads::makeScan(2);
    gpu::Gpu g2(arch::GpuConfig::testDefault(),
                dmr::DmrConfig::paperDefault(), 1, nullptr,
                recovery::RecoveryConfig::off());
    const auto r2 = runWorkload(*w2, g2);

    EXPECT_FALSE(r2.recoveryEnabled);
    EXPECT_EQ(r1.cycles, r2.cycles);
    const auto j1 = r1.metrics.toJson();
    EXPECT_EQ(j1, r2.metrics.toJson());
    // No recovery.* key leaks into a disabled run's registry.
    EXPECT_EQ(j1.find("recovery"), std::string::npos);
}

// ---------------------------------------------------------------------
// end-to-end: checkpointing, repair, give-up

TEST(Recovery, FaultFreeRunStaysCorrectWithRecoveryOn)
{
    auto w = workloads::makeScan(2);
    gpu::Gpu g(arch::GpuConfig::testDefault(),
               dmr::DmrConfig::paperDefault(), 1, nullptr,
               recovery::RecoveryConfig::paperDefault());
    const auto r = runWorkload(*w, g);
    EXPECT_FALSE(r.hung);
    EXPECT_TRUE(w->verify(g));
    EXPECT_TRUE(r.recoveryEnabled);
    EXPECT_GT(r.recovery.checkpoints, 0u);
    EXPECT_EQ(r.recovery.rollbacks, 0u);
    EXPECT_EQ(r.recovery.giveUps, 0u);
    EXPECT_NE(r.metrics.toJson().find("\"recovery.checkpoints\""),
              std::string::npos);
}

TEST(Recovery, RecoveryOnRunIsDeterministic)
{
    std::string first;
    for (int i = 0; i < 2; ++i) {
        auto w = workloads::makeScan(2);
        gpu::Gpu g(arch::GpuConfig::testDefault(),
                   dmr::DmrConfig::paperDefault(), 1, nullptr,
                   recovery::RecoveryConfig::paperDefault());
        const auto json = runWorkload(*w, g).metrics.toJson();
        if (i == 0)
            first = json;
        else
            EXPECT_EQ(first, json);
    }
}

TEST(Recovery, TransientMismatchIsRolledBackAndRepaired)
{
    const auto mkFault = [](Cycle c) {
        fault::FaultSpec s;
        s.kind = fault::FaultKind::TransientBitFlip;
        s.sm = 0;
        s.lane = 1;
        s.bit = 7;
        s.cycleBegin = c;
        s.cycleEnd = c;
        return s;
    };
    // Probe single-cycle transient windows until one raises the
    // comparator under recovery, then require the full repair: the
    // rollback happened, nothing gave up, and the final output is
    // golden. (Windows that miss or stay masked are skipped — which
    // cycles activate depends on the workload's schedule.)
    unsigned repaired = 0;
    for (Cycle c = 20; c < 400 && repaired < 3; c += 7) {
        fault::FaultInjector inj;
        inj.add(mkFault(c));
        auto w = workloads::makeScan(2);
        gpu::Gpu g(arch::GpuConfig::testDefault(),
                   dmr::DmrConfig::paperDefault(), 1, &inj,
                   recovery::RecoveryConfig::paperDefault());
        const auto r = runWorkload(*w, g, 500000);
        if (inj.activations() == 0 || r.dmr.errorsDetected == 0)
            continue;
        EXPECT_GT(r.recovery.rollbacks, 0u) << "window " << c;
        EXPECT_FALSE(r.hung) << "window " << c;
        if (r.recovery.giveUps == 0) {
            EXPECT_TRUE(w->verify(g)) << "window " << c;
            ++repaired;
        }
    }
    EXPECT_GT(repaired, 0u)
        << "no probed transient window was detected and repaired";
}

TEST(Recovery, PermanentFaultExhaustsBudgetAndGivesUp)
{
    // A stuck-at fault reproduces on every replay: the retry budget
    // must bound the livelock and degrade to detection-only.
    fault::FaultSpec s;
    s.kind = fault::FaultKind::StuckAtOne;
    s.sm = 0;
    s.lane = 2;
    s.bit = 0;
    s.unit = isa::UnitType::SP; // keep addresses fault-free
    fault::FaultInjector inj;
    inj.add(s);
    auto w = workloads::makeScan(2);
    gpu::Gpu g(arch::GpuConfig::testDefault(),
               dmr::DmrConfig::paperDefault(), 1, &inj,
               recovery::RecoveryConfig::paperDefault());
    const auto r = runWorkload(*w, g, 500000);
    EXPECT_GT(r.dmr.errorsDetected, 0u);
    EXPECT_GT(r.recovery.rollbacks, 0u);
    EXPECT_GT(r.recovery.giveUps, 0u);
}

TEST(Recovery, TinyRingEvictsWithoutBreakingFaultFreeRuns)
{
    auto rc = recovery::RecoveryConfig::paperDefault();
    rc.ringCapacity = 2;
    auto w = workloads::makeScan(2);
    gpu::Gpu g(arch::GpuConfig::testDefault(),
               dmr::DmrConfig::paperDefault(), 1, nullptr, rc);
    const auto r = runWorkload(*w, g);
    EXPECT_FALSE(r.hung);
    EXPECT_TRUE(w->verify(g));
    EXPECT_GT(r.recovery.evictions, 0u);
    EXPECT_EQ(r.recovery.rollbacks, 0u);
}

// ---------------------------------------------------------------------
// campaign integration

namespace {

fault::EngineConfig
recoveryCampaignCfg()
{
    fault::EngineConfig ec;
    ec.workload = "SCAN";
    ec.gpu = arch::GpuConfig::testDefault();
    ec.space.cycleWindows = 64;
    ec.space.kinds = {fault::FaultKind::TransientBitFlip};
    ec.sites = 30;
    ec.seed = 7;
    ec.recovery = recovery::RecoveryConfig::paperDefault();
    return ec;
}

} // namespace

TEST(Recovery, CampaignConvertsDetectionsIntoRecoveries)
{
    const auto ec = recoveryCampaignCfg();
    const auto rep =
        fault::CampaignEngine([] { return workloads::makeScan(2); },
                              ec)
            .run();
    // The headline guarantee: recovery never mints a new SDC.
    EXPECT_EQ(rep.overall.sdc, 0u);
    EXPECT_GT(rep.overall.recovered, 0u);
    EXPECT_EQ(rep.overall.recovered, rep.recoveryCount);
    const auto json = rep.toJson();
    EXPECT_NE(json.find("campaign.outcome.recovered"),
              std::string::npos);
    EXPECT_NE(json.find("campaign.recovered_fraction"),
              std::string::npos);
    EXPECT_NE(json.find("campaign.recovery.rollbacks"),
              std::string::npos);
}

TEST(Recovery, RecoveryCampaignIsIdenticalForAnyJobsCount)
{
    auto ec = recoveryCampaignCfg();
    ec.jobs = 1;
    const auto seq =
        fault::CampaignEngine([] { return workloads::makeScan(2); },
                              ec)
            .run()
            .toJson();
    ec.jobs = 3;
    const auto par =
        fault::CampaignEngine([] { return workloads::makeScan(2); },
                              ec)
            .run()
            .toJson();
    EXPECT_EQ(seq, par);
}
