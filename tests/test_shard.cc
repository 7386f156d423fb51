/**
 * @file
 * Unit tests: the library shard protocol — shard planning, the delta
 * document, aggregator determinism under every shard count and
 * failure schedule, and the stratified estimator's degenerate-stratum
 * edges.
 *
 * The headline invariant: for ANY disjoint cover of the run range,
 * folding the shard deltas in ANY order, with duplicates and
 * simulated worker deaths, reproduces the single-process campaign
 * report byte for byte.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fault/campaign_engine.hh"
#include "fault/shard.hh"
#include "fault/stratified.hh"
#include "stats/accumulator.hh"

using namespace warped;
using namespace warped::fault;

namespace {

EngineConfig
scanEngineCfg()
{
    EngineConfig ec;
    ec.workload = "SCAN";
    ec.gpu = arch::GpuConfig::testDefault();
    ec.space.cycleWindows = 64;
    ec.sites = 30;
    ec.seed = 7;
    ec.jobs = 1;
    return ec;
}

WorkloadFactory
scanFactory()
{
    return [] { return workloads::makeScan(2); };
}

/** Fold every shard of @p plans (in the given order) into a fresh
 *  aggregator and return the report JSON. */
std::string
shardedJson(const EngineConfig &ec, std::uint64_t shard_count,
            const std::vector<std::uint64_t> &order)
{
    CampaignEngine orch(scanFactory(), ec);
    orch.prepare();
    const auto plans = planShards(orch.plannedSites(), shard_count);
    ShardAggregator agg(orch.skeleton(), orch.signature(),
                        orch.plannedSites(), shard_count);
    for (const auto i : order)
        agg.fold(runShardInProcess(
            scanFactory(), ec,
            plans[static_cast<std::size_t>(i)]));
    EXPECT_TRUE(agg.complete());
    return agg.report().toJson();
}

} // namespace

// ---------------------------------------------------------------------
// planShards

TEST(PlanShards, ContiguousCoverWithRemainderUpFront)
{
    const auto p = planShards(10, 3);
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0].base, 0u);
    EXPECT_EQ(p[0].count, 4u); // 10 % 3 = 1 extra run, shard 0
    EXPECT_EQ(p[1].base, 4u);
    EXPECT_EQ(p[1].count, 3u);
    EXPECT_EQ(p[2].base, 7u);
    EXPECT_EQ(p[2].count, 3u);
}

TEST(PlanShards, MoreShardsThanRunsYieldsZeroCountShards)
{
    const auto p = planShards(2, 4);
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[0].count, 1u);
    EXPECT_EQ(p[1].count, 1u);
    EXPECT_EQ(p[2].count, 0u);
    EXPECT_EQ(p[3].count, 0u);
    // Zero-count shards still carry a consistent base.
    EXPECT_EQ(p[2].base, 2u);
    EXPECT_EQ(p[3].base, 2u);
}

TEST(PlanShards, SingleShardIsTheWholeRange)
{
    const auto p = planShards(1000000, 1);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0].base, 0u);
    EXPECT_EQ(p[0].count, 1000000u);
}

// ---------------------------------------------------------------------
// ShardDelta serialization

TEST(ShardDelta, JsonRoundTrip)
{
    ShardDelta d;
    d.shard = 3;
    d.base = 120;
    d.count = 40;
    d.signature = 0xdeadbeefcafe;
    d.counters["campaign.sampled"] = 40;
    d.counters["campaign.outcome.detected"] = 17;
    const auto text = d.toJson();
    const auto back = ShardDelta::fromJson(text);
    EXPECT_EQ(back.shard, d.shard);
    EXPECT_EQ(back.base, d.base);
    EXPECT_EQ(back.count, d.count);
    EXPECT_EQ(back.signature, d.signature);
    EXPECT_EQ(back.counters, d.counters);
}

TEST(ShardDelta, TornDocumentThrows)
{
    ShardDelta d;
    d.counters["campaign.sampled"] = 1;
    auto text = d.toJson();
    // A worker killed mid-write leaves no closing brace.
    text.resize(text.size() / 2);
    EXPECT_THROW(ShardDelta::fromJson(text), ShardError);
}

TEST(ShardDelta, TamperedCounterFailsFingerprint)
{
    ShardDelta d;
    d.counters["campaign.outcome.detected"] = 17;
    auto text = d.toJson();
    const auto pos = text.find(": 17");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 4, ": 18");
    EXPECT_THROW(ShardDelta::fromJson(text), ShardError);
}

TEST(ShardDelta, UnsupportedVersionThrows)
{
    ShardDelta d;
    auto text = d.toJson();
    const auto pos = text.find("\"shard.version\": 1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 18, "\"shard.version\": 9");
    EXPECT_THROW(ShardDelta::fromJson(text), ShardVersionError);
}

// ---------------------------------------------------------------------
// aggregator determinism — the tentpole invariant

TEST(ShardAggregator, AnyShardCountReproducesSingleProcessReport)
{
    const auto ec = scanEngineCfg();
    const auto single =
        CampaignEngine(scanFactory(), ec).run().toJson();

    EXPECT_EQ(shardedJson(ec, 1, {0}), single);
    EXPECT_EQ(shardedJson(ec, 3, {0, 1, 2}), single);
    EXPECT_EQ(shardedJson(ec, 8, {0, 1, 2, 3, 4, 5, 6, 7}), single);
}

TEST(ShardAggregator, FoldOrderDoesNotMatter)
{
    const auto ec = scanEngineCfg();
    EXPECT_EQ(shardedJson(ec, 8, {0, 1, 2, 3, 4, 5, 6, 7}),
              shardedJson(ec, 8, {7, 2, 5, 0, 6, 1, 4, 3}));
}

TEST(ShardAggregator, WorkerDeathAndReissueIsInvisible)
{
    const auto ec = scanEngineCfg();
    const auto single =
        CampaignEngine(scanFactory(), ec).run().toJson();

    CampaignEngine orch(scanFactory(), ec);
    orch.prepare();
    const auto plans = planShards(orch.plannedSites(), 3);
    ShardAggregator agg(orch.skeleton(), orch.signature(),
                        orch.plannedSites(), 3);

    // Shard 1's first worker "dies": its delta is simply never
    // delivered. The re-issued worker recomputes a bit-identical
    // delta because run i's site depends only on (seed, i).
    agg.fold(runShardInProcess(scanFactory(), ec, plans[0]));
    const auto lost = runShardInProcess(scanFactory(), ec, plans[1]);
    (void)lost;
    agg.fold(runShardInProcess(scanFactory(), ec, plans[2]));
    EXPECT_FALSE(agg.complete());
    EXPECT_TRUE(agg.has(0));
    EXPECT_FALSE(agg.has(1));
    EXPECT_TRUE(agg.has(2));

    const auto reissued =
        runShardInProcess(scanFactory(), ec, plans[1]);
    EXPECT_TRUE(agg.fold(reissued));
    // A late duplicate delivery (the "dead" worker wasn't dead after
    // all) folds idempotently.
    EXPECT_FALSE(agg.fold(reissued));
    EXPECT_TRUE(agg.complete());
    EXPECT_EQ(agg.report().toJson(), single);
}

TEST(ShardAggregator, SignatureMismatchIsRejected)
{
    const auto ec = scanEngineCfg();
    CampaignEngine orch(scanFactory(), ec);
    orch.prepare();
    ShardAggregator agg(orch.skeleton(), orch.signature(),
                        orch.plannedSites(), 2);

    auto other = ec;
    other.seed = 8; // different campaign
    CampaignEngine eng2(scanFactory(), other);
    eng2.prepare();
    const auto plans = planShards(eng2.plannedSites(), 2);
    const auto d = runShardInProcess(scanFactory(), other, plans[0]);
    EXPECT_THROW(agg.fold(d), ShardError);
}

TEST(ShardAggregator, RangeDisagreementIsRejected)
{
    const auto ec = scanEngineCfg();
    CampaignEngine orch(scanFactory(), ec);
    orch.prepare();
    ShardAggregator agg(orch.skeleton(), orch.signature(),
                        orch.plannedSites(), 2);
    // A worker run with --shard-count 3 produces a range the 2-shard
    // plan never issued.
    const auto plans = planShards(orch.plannedSites(), 3);
    const auto d = runShardInProcess(scanFactory(), ec, plans[0]);
    EXPECT_THROW(agg.fold(d), ShardError);
}

TEST(ShardDelta, CountersAreAdditive)
{
    // Every key a delta carries sums: the counts of two adjacent run
    // ranges add up to the counts of their union, key by key, on every
    // configuration that adds report keys.
    std::vector<std::pair<const char *, EngineConfig>> cases;
    cases.emplace_back("exec", scanEngineCfg());
    auto both = scanEngineCfg();
    both.gpu.memModel = arch::MemModel::Banked;
    both.gpu.eccKind = arch::EccKind::Secded;
    both.space.memEnabled = true;
    cases.emplace_back("both-secded", both);
    auto rec = scanEngineCfg();
    rec.recovery = recovery::RecoveryConfig::paperDefault();
    cases.emplace_back("recovery", rec);
    auto strata = scanEngineCfg();
    strata.strataWindows = 4;
    cases.emplace_back("strata", strata);
    auto replay = scanEngineCfg();
    replay.scheme.id = protection::SchemeId::ReplayCompare;
    cases.emplace_back("replay-compare", replay);

    for (const auto &[name, ec] : cases) {
        SCOPED_TRACE(name);
        CampaignEngine engine(scanFactory(), ec);
        engine.prepare();
        const auto n = engine.plannedSites();
        const std::uint64_t k = 11;
        ASSERT_LT(k, n);
        auto sum = engine.runRange(0, k).counters();
        for (const auto &[key, v] : engine.runRange(k, n - k).counters())
            sum[key] += v;
        EXPECT_EQ(sum, engine.runRange(0, n).counters());
    }
}

// ---------------------------------------------------------------------
// stratified sampling end to end

TEST(ShardAggregator, StratifiedCampaignShardsIdentically)
{
    auto ec = scanEngineCfg();
    ec.strataWindows = 4;
    const auto single =
        CampaignEngine(scanFactory(), ec).run();
    ASSERT_FALSE(single.byStratum.empty());
    ASSERT_FALSE(single.stratumSizes.empty());

    EXPECT_EQ(shardedJson(ec, 3, {2, 0, 1}), single.toJson());
}

TEST(StratifiedSpace, PartitionsTheSiteSpaceExactly)
{
    const auto ec = scanEngineCfg();
    CampaignEngine eng(scanFactory(), ec);
    eng.prepare();
    const StratifiedSpace strat(eng.space(), 4);

    std::uint64_t covered = 0;
    for (const auto sz : strat.sizes())
        covered += sz;
    EXPECT_EQ(covered, eng.space().size());
    EXPECT_EQ(strat.labels().size(), strat.strata());
}

TEST(StratifiedSpace, AllocationIsExhaustiveAndInOrder)
{
    const auto ec = scanEngineCfg();
    CampaignEngine eng(scanFactory(), ec);
    eng.prepare();
    StratifiedSpace strat(eng.space(), 4);
    strat.allocate(100);

    std::uint64_t sum = 0;
    for (std::size_t h = 0; h < strat.strata(); ++h)
        sum += strat.allocated(h);
    EXPECT_EQ(sum, 100u);

    // Every run index maps into the stratum that owns it, and the
    // drawn site lies inside that stratum's blocks.
    for (std::uint64_t r = 0; r < 100; ++r) {
        const auto h = strat.stratumOfRun(r);
        ASSERT_LT(h, strat.strata());
        const auto site = strat.siteForRun(ec.seed, r);
        EXPECT_LT(site, eng.space().size());
    }
}

// ---------------------------------------------------------------------
// stats::StratifiedEstimator edges (the Wilson-merge corner cases)

TEST(StratifiedEstimator, MergeEqualsDirectAccumulation)
{
    const std::vector<std::uint64_t> sizes = {60, 40};
    stats::StratifiedEstimator a(sizes), b(sizes), direct(sizes);
    a.addCounts(0, 10, 20);
    b.addCounts(0, 5, 10);
    b.addCounts(1, 8, 8);
    direct.addCounts(0, 15, 30);
    direct.addCounts(1, 8, 8);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.estimate(), direct.estimate());
    EXPECT_DOUBLE_EQ(a.interval().lo, direct.interval().lo);
    EXPECT_DOUBLE_EQ(a.interval().hi, direct.interval().hi);
    EXPECT_EQ(a.sampled(), direct.sampled());
}

TEST(StratifiedEstimator, EmptyStratumIsConservativeNotFatal)
{
    stats::StratifiedEstimator est({50, 50});
    est.addCounts(0, 40, 50); // stratum 1 never sampled
    const auto ci = est.interval();
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_LE(ci.hi, 1.0);
    // The pooled proportion (0.8) substitutes for the unsampled
    // stratum, so the point estimate stays 0.8...
    EXPECT_NEAR(est.estimate(), 0.8, 1e-12);
    // ...but the worst-case variance of the missing stratum widens
    // the interval beyond the fully-sampled equivalent.
    stats::StratifiedEstimator full({50, 50});
    full.addCounts(0, 40, 50);
    full.addCounts(1, 40, 50);
    EXPECT_GT(ci.hi - ci.lo,
              full.interval().hi - full.interval().lo);
}

TEST(StratifiedEstimator, AllMaskedStratumPinsAtZero)
{
    stats::StratifiedEstimator est({10, 10});
    est.addCounts(0, 0, 10); // everything Masked: zero caught
    est.addCounts(1, 0, 10);
    EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
    const auto ci = est.interval();
    EXPECT_DOUBLE_EQ(ci.lo, 0.0);
    EXPECT_LE(ci.hi, 1.0);
    EXPECT_DOUBLE_EQ(est.stratum(0).wilson().lo, 0.0);
}

TEST(StratifiedEstimator, SingleRunStratumIsWellDefined)
{
    stats::StratifiedEstimator est({100, 1});
    est.addCounts(0, 50, 100);
    est.addCounts(1, 1, 1);
    const auto ci = est.interval();
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_LE(ci.hi, 1.0);
    EXPECT_GT(est.estimate(), 0.0);
}

TEST(ProportionalAllocation, ExactDeterministicAndCoversNonzero)
{
    const std::vector<std::uint64_t> sizes = {70, 20, 10, 0};
    const auto n = stats::proportionalAllocation(sizes, 17);
    ASSERT_EQ(n.size(), 4u);
    EXPECT_EQ(n[0] + n[1] + n[2] + n[3], 17u);
    EXPECT_EQ(n[3], 0u); // empty stratum draws nothing
    EXPECT_GE(n[1], 1u); // nonzero strata draw at least one
    EXPECT_GE(n[2], 1u);
    // Deterministic: same inputs, same split.
    EXPECT_EQ(stats::proportionalAllocation(sizes, 17), n);
}

// ---------------------------------------------------------------------
// delta hardening: corrupt, truncated, and oversized documents must
// be diagnosed, never crash or silently mis-fold

TEST(ShardDelta, EveryPrefixTruncationIsDiagnosedNotCrash)
{
    ShardDelta d;
    d.shard = 1;
    d.base = 10;
    d.count = 5;
    d.signature = 42;
    d.counters["campaign.sampled"] = 5;
    d.counters["campaign.outcome.sdc"] = 2;
    const auto text = d.toJson();
    // A worker can die after writing any byte count; every prefix
    // must either throw ShardError or — when the cut lands after the
    // closing brace and only sheds trailing whitespace — decode to
    // the identical delta. Nothing in between is acceptable.
    for (std::size_t n = 0; n < text.size(); ++n) {
        const auto prefix = text.substr(0, n);
        try {
            const auto got = ShardDelta::fromJson(prefix);
            EXPECT_EQ(got.shard, d.shard) << "prefix of " << n;
            EXPECT_EQ(got.base, d.base) << "prefix of " << n;
            EXPECT_EQ(got.count, d.count) << "prefix of " << n;
            EXPECT_EQ(got.signature, d.signature)
                << "prefix of " << n;
            EXPECT_EQ(got.counters, d.counters)
                << "prefix of " << n;
            // Only a whitespace-trimmed full document may succeed.
            EXPECT_EQ(prefix.find('}'), prefix.size() - 1)
                << "prefix of " << n
                << " bytes parsed without reaching the closing brace";
        } catch (const ShardError &) {
            // diagnosed, as required
        }
    }
    EXPECT_NO_THROW(ShardDelta::fromJson(text));
}

TEST(ShardDelta, SingleByteCorruptionNeverMisfolds)
{
    ShardDelta d;
    d.shard = 0;
    d.base = 0;
    d.count = 8;
    d.signature = 7;
    d.counters["campaign.sampled"] = 8;
    d.counters["campaign.outcome.masked"] = 3;
    const auto text = d.toJson();
    // Flip one byte at a time through the whole document. Every
    // variant must either throw ShardError or decode to a delta
    // whose header and counters fingerprint-check internally — a
    // corrupt document must never fold wrong numbers silently.
    unsigned rejected = 0;
    for (std::size_t at = 0; at < text.size(); ++at) {
        std::string bad = text;
        bad[at] ^= 0x08;
        if (bad[at] == text[at])
            continue;
        try {
            const auto back = ShardDelta::fromJson(bad);
            // Parsed: the damage must have hit redundant whitespace
            // or been absorbed into a *consistent* document. The
            // fingerprint covers the counters, so the payload is
            // intact.
            EXPECT_EQ(back.counters, d.counters) << "byte " << at;
        } catch (const ShardError &) {
            ++rejected;
        }
    }
    // The vast majority of flips must be caught outright.
    EXPECT_GT(rejected, text.size() / 2);
}

TEST(ShardDelta, OversizedDocumentIsRefusedBeforeParsing)
{
    std::string huge = "{\"shard.version\": 1";
    huge.append(70u * 1024 * 1024, ' ');
    huge += "}";
    EXPECT_THROW(ShardDelta::fromJson(huge), ShardError);
}

TEST(ShardDelta, RunawayKeyIsRefused)
{
    ShardDelta d;
    d.counters[std::string(8192, 'k')] = 1;
    EXPECT_THROW(ShardDelta::fromJson(d.toJson()), ShardError);
}

TEST(ShardDelta, OverflowingRunRangeIsRefused)
{
    ShardDelta d;
    d.shard = 0;
    d.base = ~std::uint64_t{0} - 1;
    d.count = 5; // base + count wraps
    d.signature = 1;
    EXPECT_THROW(ShardDelta::fromJson(d.toJson()), ShardError);
}
