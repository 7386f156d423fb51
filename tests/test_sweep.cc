/**
 * @file
 * The resident sweep's partition invariance and its fork telemetry.
 *
 * CampaignEngine sorts each chunk's simulated sites by fork cycle and
 * forks them in that order on resident golden/site machine pairs, one
 * per worker, each pair taking the next site when it is free. Which
 * pair runs which sites, a chunk or shard boundary, or a state leak
 * from one site into the next would show as a report that depends on
 * how the runs were cut.
 * So every worker count, and every shard count folded back together,
 * must give the byte-identical report — on an execution-only
 * campaign, a mixed execution + memory one on the banked SECDED
 * machine, and a stratified one, at two seeds. The fork copies only
 * the register planes either machine of a pair wrote since their
 * previous fork, a small share of the live ones.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "fault/shard.hh"

using namespace warped;
using namespace warped::fault;

namespace {

struct SweepCase
{
    const char *name;
    WorkloadFactory factory;
    EngineConfig cfg;
};

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;
    {
        EngineConfig ec;
        ec.workload = "SHA";
        ec.gpu.numSms = 4;
        ec.sites = 160;
        cases.push_back({"sha4_exec", [] { return workloads::makeSha(4); },
                         ec});
    }
    {
        EngineConfig ec;
        ec.workload = "MatrixMul";
        ec.gpu.numSms = 4;
        ec.gpu.memModel = arch::MemModel::Banked;
        ec.gpu.eccKind = arch::EccKind::Secded;
        ec.space.memEnabled = true;
        ec.sites = 240;
        cases.push_back({"matrixmul32_both",
                         [] { return workloads::makeMatrixMul(32); }, ec});
    }
    {
        EngineConfig ec;
        ec.workload = "SCAN";
        ec.gpu.numSms = 4;
        ec.strataWindows = 8;
        ec.sites = 160;
        cases.push_back({"scan_strata", [] { return workloads::makeScan(4); },
                         ec});
    }
    return cases;
}

/** The case's report with @p jobs workers, in 50-run chunks (so
 *  sweeps restart at chunk boundaries too). */
std::string
runWithJobs(const SweepCase &tc, std::uint64_t seed, unsigned jobs)
{
    EngineConfig ec = tc.cfg;
    ec.seed = seed;
    ec.jobs = jobs;
    ec.checkpointEvery = 50;
    return CampaignEngine(tc.factory, ec).run().toJson();
}

/** The case's report folded from @p shards in-process shard deltas. */
std::string
runWithShards(const SweepCase &tc, std::uint64_t seed, unsigned shards)
{
    EngineConfig ec = tc.cfg;
    ec.seed = seed;
    ec.jobs = 2;
    CampaignEngine engine(tc.factory, ec);
    engine.prepare();
    const auto plans = planShards(engine.plannedSites(), shards);
    ShardAggregator agg(engine.skeleton(), engine.signature(),
                        engine.plannedSites(), plans.size());
    for (const auto &plan : plans)
        agg.fold(runShardInProcess(tc.factory, ec, plan));
    return agg.report().toJson();
}

} // namespace

TEST(SweepPartitions, ReportsAreIdenticalForEveryJobsAndShardCount)
{
    setVerbose(false);
    for (const auto &tc : sweepCases()) {
        for (const std::uint64_t seed : {7u, 1009u}) {
            SCOPED_TRACE(std::string(tc.name) + " seed " +
                         std::to_string(seed));
            const std::string want = runWithJobs(tc, seed, 1);
            for (const unsigned jobs : {2u, 3u, 8u}) {
                SCOPED_TRACE("jobs " + std::to_string(jobs));
                EXPECT_EQ(runWithJobs(tc, seed, jobs), want);
            }
            for (const unsigned shards : {1u, 3u, 7u}) {
                SCOPED_TRACE("shards " + std::to_string(shards));
                EXPECT_EQ(runWithShards(tc, seed, shards), want);
            }
        }
    }
}

TEST(ForkTelemetry, StaysOutOfTheReportAndForksNextToTheFault)
{
    setVerbose(false);
    EngineConfig ec;
    ec.workload = "SHA";
    ec.gpu.numSms = 4;
    ec.seed = 7;
    ec.sites = 200;
    const WorkloadFactory factory = [] { return workloads::makeSha(4); };
    std::string first;
    std::uint64_t simulated = 0;
    for (const unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        ec.jobs = jobs;
        CampaignEngine engine(factory, ec);
        EXPECT_EQ(engine.forkTelemetry().sitesSimulated, 0u);
        const std::string json = engine.run().toJson();
        EXPECT_EQ(json.find("fork"), std::string::npos);
        if (first.empty())
            first = json;
        EXPECT_EQ(json, first);

        const auto &t = engine.forkTelemetry();
        EXPECT_GT(t.sitesSimulated, ec.sites / 2);
        EXPECT_LE(t.sitesSimulated, ec.sites);
        EXPECT_EQ(t.sweepForks + t.rungForks, t.sitesSimulated);
        // A golden machine only moves forward through the one chunk:
        // at most one span per worker, not a prefix per site. With one
        // worker, most forks continue from the previous one (which
        // pair takes which site depends on scheduling otherwise).
        EXPECT_LE(t.goldenCycles, engine.span() * jobs);
        if (jobs == 1) {
            EXPECT_GT(t.sweepForks, t.rungForks);
        }
        // Forked next to the fault: a site simulates from its fork to
        // its exit only (resuming from a rung replays about 250 golden
        // cycles first).
        EXPECT_LT(t.siteCycles, 20 * t.sitesSimulated);
        if (simulated == 0)
            simulated = t.sitesSimulated;
        EXPECT_EQ(t.sitesSimulated, simulated);
    }
}

TEST(ForkTelemetry, ForksCopyOnlyThePlanesWrittenSinceThePreviousFork)
{
    setVerbose(false);
    // At seed 7 and one worker, the forks copy 14.5 register planes
    // per simulated site on SHA-4 and 24.2 on MatrixMul-32; copying
    // every live plane at every fork would be 280 and 319. The bounds
    // leave about 2x headroom.
    struct Case
    {
        const char *name;
        WorkloadFactory factory;
        std::uint64_t planesPerSite;
    };
    const Case cases[] = {
        {"SHA", [] { return workloads::makeSha(4); }, 30},
        {"MatrixMul", [] { return workloads::makeMatrixMul(32); }, 50},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        EngineConfig ec;
        ec.workload = c.name;
        ec.gpu.numSms = 4;
        ec.seed = 7;
        ec.sites = 2000;
        ec.jobs = 1;
        CampaignEngine engine(c.factory, ec);
        engine.run();
        const auto &t = engine.forkTelemetry();
        ASSERT_GT(t.sitesSimulated, 100u);
        EXPECT_GT(t.planesCopied, 0u);
        EXPECT_LE(t.planesCopied, c.planesPerSite * t.sitesSimulated);
    }
}

TEST(ForkTelemetry, SettledCountsAreJobsIndependentAndCoverThePlan)
{
    setVerbose(false);
    const SweepCase tc = sweepCases()[1]; // MatrixMul-32 both, SECDED
    EngineConfig ec = tc.cfg;
    ec.seed = 7;
    ec.sites = 400;
    ec.checkpointEvery = 150;
    ForkTelemetry first;
    for (const unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        ec.jobs = jobs;
        CampaignEngine engine(tc.factory, ec);
        engine.run();
        const auto &t = engine.forkTelemetry();
        // Every run is settled by one golden log or simulated, and
        // each verdict occurs here.
        EXPECT_EQ(t.settledOracle + t.settledNotRead + t.settledCorrected +
                      t.settledMachineCheck + t.sitesSimulated,
                  engine.plannedSites());
        EXPECT_GT(t.settledOracle, 0u);
        EXPECT_GT(t.settledNotRead, 0u);
        EXPECT_GT(t.settledCorrected, 0u);
        EXPECT_GT(t.settledMachineCheck, 0u);
        if (jobs == 1) {
            first = t;
            continue;
        }
        EXPECT_EQ(t.settledOracle, first.settledOracle);
        EXPECT_EQ(t.settledNotRead, first.settledNotRead);
        EXPECT_EQ(t.settledCorrected, first.settledCorrected);
        EXPECT_EQ(t.settledMachineCheck, first.settledMachineCheck);
        EXPECT_EQ(t.sitesSimulated, first.sitesSimulated);
    }
}
