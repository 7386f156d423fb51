/**
 * @file
 * Unit tests: the campaign engine stack — Wilson intervals, sample
 * sizing, the fault-site space, outcome classification, and the
 * engine's determinism and checkpoint/resume guarantees.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "mem/mem_fault.hh"
#include "mem/memory.hh"
#include "protection/scheme_registry.hh"
#include "stats/confidence.hh"
#include "trace/metrics.hh"

using namespace warped;
using namespace warped::fault;

// ---------------------------------------------------------------------
// stats/confidence.hh

TEST(Wilson, KnownValues)
{
    // 9/10 successes at z95: the textbook Wilson interval.
    const auto i = stats::wilsonInterval(9, 10);
    EXPECT_NEAR(i.lo, 0.59585, 1e-4);
    EXPECT_NEAR(i.hi, 0.98212, 1e-4);
}

TEST(Wilson, ZeroSuccessesPinsLowerBound)
{
    const auto i = stats::wilsonInterval(0, 10);
    EXPECT_DOUBLE_EQ(i.lo, 0.0);
    // hi = z^2 / (n + z^2)
    EXPECT_NEAR(i.hi, 0.27753, 1e-4);
}

TEST(Wilson, AllSuccessesPinsUpperBound)
{
    const auto i = stats::wilsonInterval(10, 10);
    EXPECT_NEAR(i.lo, 0.72247, 1e-4);
    EXPECT_DOUBLE_EQ(i.hi, 1.0);
}

TEST(Wilson, NoTrialsIsVacuous)
{
    const auto i = stats::wilsonInterval(0, 0);
    EXPECT_DOUBLE_EQ(i.lo, 0.0);
    EXPECT_DOUBLE_EQ(i.hi, 1.0);
}

TEST(Wilson, IntervalShrinksWithTrials)
{
    const auto small = stats::wilsonInterval(90, 100);
    const auto large = stats::wilsonInterval(9000, 10000);
    EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
    EXPECT_GT(large.lo, 0.89);
    EXPECT_LT(large.hi, 0.91);
}

TEST(SampleSize, ClassicValues)
{
    // The canonical "n = 385 for +-5 % at 95 %".
    EXPECT_EQ(stats::sampleSizeForMargin(0.05), 385u);
    EXPECT_EQ(stats::sampleSizeForMargin(0.01), 9604u);
}

TEST(SampleSize, FinitePopulationCorrection)
{
    // Against a population of 1000, +-5 % needs only 278 draws.
    EXPECT_EQ(stats::sampleSizeForMargin(0.05, stats::kZ95, 0.5, 1000),
              278u);
    // A huge population is indistinguishable from infinite.
    EXPECT_EQ(stats::sampleSizeForMargin(0.05, stats::kZ95, 0.5,
                                         std::uint64_t{1} << 40),
              385u);
}

// ---------------------------------------------------------------------
// fault/site_space.hh

namespace {

SiteSpaceConfig
smallSpaceCfg()
{
    SiteSpaceConfig sc;
    sc.numSms = 2;
    sc.warpSize = 4;
    sc.bits = 8;
    sc.cycleWindows = 16;
    return sc;
}

} // namespace

TEST(SiteSpace, SizeArithmetic)
{
    const FaultSiteSpace space(smallSpaceCfg(), 1000);
    // place = 2 SMs * 4 lanes * 8 bits * 1 unit = 64.
    // transient = 64 * 16 windows; each stuck-at kind = 64.
    EXPECT_EQ(space.size(), 64u * 16 + 64 + 64);
    EXPECT_EQ(space.cycleWindows(), 16u);
}

TEST(SiteSpace, DecodeCoversEveryAxisValue)
{
    const FaultSiteSpace space(smallSpaceCfg(), 1000);
    std::set<std::tuple<int, unsigned, unsigned, unsigned, Cycle>> seen;
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        const auto s = space.site(i);
        EXPECT_LT(s.sm, 2u);
        EXPECT_LT(s.lane, 4u);
        EXPECT_LT(s.bit, 8u);
        EXPECT_FALSE(s.unit.has_value());
        if (s.kind == FaultKind::TransientBitFlip) {
            EXPECT_EQ(s.cycleBegin, s.cycleEnd);
            EXPECT_LT(s.cycleEnd, 1000u);
        } else {
            EXPECT_EQ(s.cycleBegin, 0u);
            EXPECT_EQ(s.cycleEnd, ~Cycle{0});
        }
        seen.insert({static_cast<int>(s.kind), s.sm, s.lane, s.bit,
                     s.cycleBegin});
    }
    // The decode is a bijection onto the axis product.
    EXPECT_EQ(seen.size(), space.size());
}

TEST(SiteSpace, StuckAtOnlySpaceHasNoWindowAxis)
{
    auto sc = smallSpaceCfg();
    sc.kinds = {FaultKind::StuckAtOne};
    const FaultSiteSpace space(sc, /*span=*/0);
    EXPECT_EQ(space.size(), 64u);
}

TEST(SiteSpace, SampleIsDeterministicAndOrderFree)
{
    const FaultSiteSpace space(smallSpaceCfg(), 1000);
    // Draw i depends only on (seed, i): any permutation of evaluation
    // order — i.e. any --jobs value — sees the same sites.
    std::vector<std::uint64_t> fwd, bwd;
    for (std::uint64_t i = 0; i < 200; ++i)
        fwd.push_back(space.sampleIndex(42, i));
    for (std::uint64_t i = 200; i-- > 0;)
        bwd.push_back(space.sampleIndex(42, i));
    for (std::uint64_t i = 0; i < 200; ++i) {
        EXPECT_EQ(fwd[i], bwd[199 - i]);
        EXPECT_LT(fwd[i], space.size());
    }
    // A different master seed gives a different sequence.
    bool differs = false;
    for (std::uint64_t i = 0; i < 200 && !differs; ++i)
        differs = space.sampleIndex(43, i) != fwd[i];
    EXPECT_TRUE(differs);
}

TEST(SiteSpace, SignatureTracksAxes)
{
    const FaultSiteSpace a(smallSpaceCfg(), 1000);
    const FaultSiteSpace same(smallSpaceCfg(), 1000);
    EXPECT_EQ(a.signature(), same.signature());

    auto sc = smallSpaceCfg();
    sc.kinds = {FaultKind::StuckAtOne};
    EXPECT_NE(FaultSiteSpace(sc, 1000).signature(), a.signature());
    EXPECT_NE(FaultSiteSpace(smallSpaceCfg(), 999).signature(),
              a.signature());
}

// ---------------------------------------------------------------------
// outcome classification

TEST(Outcome, ClassificationPriority)
{
    // Never-activated is Masked no matter what else happened.
    EXPECT_EQ(classifyOutcome(false, false, false, true, false),
              OutcomeClass::Masked);
    // Detection outranks hang and corruption.
    EXPECT_EQ(classifyOutcome(true, true, true, false, false),
              OutcomeClass::Detected);
    // An undetected hang is a DUE even if the output also differs.
    EXPECT_EQ(classifyOutcome(true, false, true, false, false),
              OutcomeClass::Due);
    // Wrong output with no alarm is the SDC case.
    EXPECT_EQ(classifyOutcome(true, false, false, false, false),
              OutcomeClass::Sdc);
    // Activated but architecturally masked.
    EXPECT_EQ(classifyOutcome(true, false, false, true, false),
              OutcomeClass::Masked);
}

TEST(Outcome, CountsAndRates)
{
    OutcomeCounts c;
    c.add(OutcomeClass::Masked, false);
    c.add(OutcomeClass::Masked, true);
    c.add(OutcomeClass::Detected, true);
    c.add(OutcomeClass::Detected, true);
    c.add(OutcomeClass::Detected, true);
    c.add(OutcomeClass::Sdc, true);
    EXPECT_EQ(c.total(), 6u);
    EXPECT_EQ(c.notActivated, 1u);
    EXPECT_DOUBLE_EQ(c.coverage(), 3.0 / 6.0);
    EXPECT_DOUBLE_EQ(c.detectionRate(), 3.0 / 4.0);
    const auto ci = c.coverageCi();
    EXPECT_LT(ci.lo, 0.5);
    EXPECT_GT(ci.hi, 0.5);
}

TEST(Outcome, LatencyBucketsAreLog2)
{
    EXPECT_EQ(latencyBucket(0), 0u);
    EXPECT_EQ(latencyBucket(1), 1u);
    EXPECT_EQ(latencyBucket(2), 2u);
    EXPECT_EQ(latencyBucket(3), 2u);
    EXPECT_EQ(latencyBucket(4), 3u);
    EXPECT_EQ(latencyBucket(1023), 10u);
    EXPECT_EQ(latencyBucket(~std::uint64_t{0}), kLatencyBuckets - 1);
}

TEST(Outcome, EccCorrectedMemoryFaultsFoldAsEccCorrectedNotRecovered)
{
    // ECC / DMR interplay at the campaign boundary. A memory site's
    // upset is read through the codec before any execution unit sees
    // it, so a word SECDED corrects reaches the pipeline golden and
    // DMR never fires. Fold a batch of such sites, each a mem::Memory
    // behind a Secded fault plane classified the way the engine
    // classifies memory sites, into OutcomeCounts: they land in
    // eccCorrected, count toward coverage, and recovered stays 0
    // (classifyMemOutcome has no recovery input).
    OutcomeCounts c;
    for (unsigned site = 0; site < 8; ++site) {
        const Addr addr = 4 * site;
        const RegValue v = 0xa5a50000u + site;
        mem::Memory m(32);
        mem::MemFaultPlane plane(arch::EccKind::Secded);
        m.writeWord(addr, v);
        m.attachFaultPlane(&plane);
        plane.inject(addr, mem::MemFaultKind::Bit, (site * 7) % 32,
                     /*at=*/0);
        const bool outputOk = m.readWord(addr) == v;
        ASSERT_TRUE(outputOk);
        ASSERT_EQ(plane.corrected(), 1u);
        const bool activated = plane.consumedReads() > 0;
        const auto cls = classifyMemOutcome(
            activated, plane.uncorrectable() > 0, plane.corrected() > 0,
            /*detected=*/false, /*hung=*/false, outputOk);
        EXPECT_EQ(cls, OutcomeClass::EccCorrected);
        c.add(cls, activated);
    }
    EXPECT_EQ(c.total(), 8u);
    EXPECT_EQ(c.eccCorrected, 8u);
    EXPECT_EQ(c.masked, 0u);
    EXPECT_EQ(c.notActivated, 0u);
    EXPECT_EQ(c.recovered, 0u);
    EXPECT_EQ(c.detected, 0u);
    EXPECT_EQ(c.sdc, 0u);
    // Every site was caught and repaired by the ECC controller: full
    // coverage and a perfect detection rate, with no help from
    // recovery.
    EXPECT_DOUBLE_EQ(c.coverage(), 1.0);
    EXPECT_DOUBLE_EQ(c.detectionRate(), 1.0);
}

// ---------------------------------------------------------------------
// the engine: determinism, resume, and protection ablation

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
    return ec;
}

WorkloadFactory
scanFactory()
{
    return [] { return workloads::makeScan(2); };
}

} // namespace

TEST(CampaignEngine, ReportIsIdenticalForAnyJobsCount)
{
    auto ec = scanEngineCfg();
    ec.jobs = 1;
    const auto seq = CampaignEngine(scanFactory(), ec).run().toJson();
    ec.jobs = 3;
    const auto par = CampaignEngine(scanFactory(), ec).run().toJson();
    EXPECT_EQ(seq, par);
}

TEST(CampaignEngine, ResumedCampaignMatchesUninterrupted)
{
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_ckpt.json";
    std::remove(ckpt.c_str());

    auto ec = scanEngineCfg();
    ec.jobs = 2;
    const auto full = CampaignEngine(scanFactory(), ec).run();

    // Interrupt after one 10-run chunk...
    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 10;
    ec.stopAfterChunks = 1;
    const auto partial = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(partial.sampled, 10u);

    // ...then resume with a different worker count.
    ec.stopAfterChunks = 0;
    ec.jobs = 1;
    const auto resumed = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(resumed.sampled, full.sampled);
    EXPECT_EQ(resumed.toJson(), full.toJson());
    std::remove(ckpt.c_str());
}

TEST(CampaignEngine, MismatchedCheckpointIsRefused)
{
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_ckpt2.json";
    std::remove(ckpt.c_str());

    auto ec = scanEngineCfg();
    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 10;
    ec.stopAfterChunks = 1;
    CampaignEngine(scanFactory(), ec).run();

    // A different campaign seed invalidates the state file: the stale
    // checkpoint is ignored and the campaign restarts from zero (a
    // resume would have carried the 10 prior runs to 20).
    ec.seed = 8;
    const auto restarted = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(restarted.sampled, 10u);
    std::remove(ckpt.c_str());
}

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    return text;
}

void
spill(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text;
}

} // namespace

TEST(CampaignEngine, TornCheckpointIsAHardError)
{
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_torn.json";
    std::remove(ckpt.c_str());

    auto ec = scanEngineCfg();
    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 10;
    ec.stopAfterChunks = 1;
    CampaignEngine(scanFactory(), ec).run();

    // The previous writer "crashed mid-write": the document loses
    // its tail, including the closing brace. Resuming must refuse
    // loudly — silently restarting from zero would destroy the very
    // progress checkpointing protects.
    const auto text = slurp(ckpt);
    ASSERT_FALSE(text.empty());
    spill(ckpt, text.substr(0, text.size() / 2));

    ec.stopAfterChunks = 0;
    EXPECT_THROW(CampaignEngine(scanFactory(), ec).run(),
                 CheckpointError);
    std::remove(ckpt.c_str());
}

TEST(CampaignEngine, TamperedCheckpointFailsItsFingerprint)
{
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_tamper.json";
    std::remove(ckpt.c_str());

    auto ec = scanEngineCfg();
    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 10;
    ec.stopAfterChunks = 1;
    CampaignEngine(scanFactory(), ec).run();

    // Structurally intact JSON with one flipped digit: the payload
    // fingerprint catches what the closing-brace check cannot.
    auto text = slurp(ckpt);
    const auto pos = text.find("\"campaign.sampled\": 10");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 22, "\"campaign.sampled\": 11");
    spill(ckpt, text);

    ec.stopAfterChunks = 0;
    EXPECT_THROW(CampaignEngine(scanFactory(), ec).run(),
                 CheckpointError);
    std::remove(ckpt.c_str());
}

TEST(CampaignEngine, FailedCheckpointWriteKeepsThePreviousCheckpoint)
{
    namespace fs = std::filesystem;
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full to fail a write with";
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_full.json";
    const std::string tmp = ckpt + ".tmp";
    std::remove(ckpt.c_str());
    std::remove(tmp.c_str());

    auto ec = scanEngineCfg();
    const auto full = CampaignEngine(scanFactory(), ec).run();

    // One 15-run chunk, checkpointed...
    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 15;
    ec.stopAfterChunks = 1;
    CampaignEngine(scanFactory(), ec).run();
    const auto old = slurp(ckpt);
    ASSERT_FALSE(old.empty());

    // ...then the resumed campaign's one checkpoint write hits a full
    // disk. The short file must not replace the complete one.
    fs::create_symlink("/dev/full", tmp);
    ec.stopAfterChunks = 0;
    const auto resumed = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(resumed.toJson(), full.toJson());
    // Reading a checkpoint replaced by the link would stream zeros
    // forever.
    ASSERT_FALSE(fs::is_symlink(ckpt));
    ASSERT_TRUE(fs::is_regular_file(ckpt));
    EXPECT_EQ(slurp(ckpt), old);
    EXPECT_FALSE(fs::exists(fs::symlink_status(tmp)));
    std::remove(tmp.c_str());
    std::remove(ckpt.c_str());
}

TEST(CampaignEngine, PreviousFormatCheckpointIsStale)
{
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_v2.json";
    std::remove(ckpt.c_str());

    auto ec = scanEngineCfg();
    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 10;
    ec.stopAfterChunks = 1;

    // A checkpoint of the earlier campaign.checkpoint.* format (version
    // 2) for this very configuration after its first 10 runs, with a
    // correct payload fingerprint: the counters are the run prefix's
    // delta and the signature is the engine's.
    CampaignEngine engine(scanFactory(), ec);
    const auto counters = engine.runRange(0, 10).counters();
    const std::string header = "campaign.checkpoint.";
    trace::MetricsRegistry old;
    old.counter(header + "version") = 2;
    old.counter(header + "signature") = engine.signature();
    old.counter(header + "fingerprint") =
        trace::countersFingerprint(counters);
    for (const auto &[k, v] : counters)
        old.counter(k) = v;
    spill(ckpt, old.toJson());

    // Not a current-format document: warned about and ignored, so the
    // campaign restarts (a resume would have carried it to 20 runs).
    const auto restarted = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(restarted.sampled, 10u);
    std::remove(ckpt.c_str());
}

TEST(CampaignEngine, CheckpointEveryZeroIsClampedNotFatal)
{
    // The engine guards the degenerate chunk size (the CLI rejects
    // it outright at parse time): a zero chunk would never fold any
    // runs, spinning forever.
    auto ec = scanEngineCfg();
    ec.checkpointEvery = 0;
    const auto rep = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(rep.sampled, 30u);
    EXPECT_EQ(rep.toJson(),
              CampaignEngine(scanFactory(), scanEngineCfg())
                  .run()
                  .toJson());
}

TEST(CampaignEngine, CheckpointEveryBeyondPlanIsClamped)
{
    auto ec = scanEngineCfg();
    ec.checkpointEvery = 1u << 20; // far beyond the 30 planned runs
    const auto rep = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(rep.sampled, 30u);
    EXPECT_EQ(rep.toJson(),
              CampaignEngine(scanFactory(), scanEngineCfg())
                  .run()
                  .toJson());
}

TEST(CampaignEngine, DerivesSampleSizeFromMargin)
{
    auto ec = scanEngineCfg();
    ec.sites = 0;
    ec.marginOfError = 0.2; // tiny campaign: n0 = 25 (pre-correction)
    ec.space.kinds = {FaultKind::StuckAtOne};
    CampaignEngine eng(scanFactory(), ec);
    const auto rep = eng.run();
    EXPECT_EQ(eng.plannedSites(),
              stats::sampleSizeForMargin(0.2, stats::kZ95, 0.5,
                                         rep.spaceSize));
    EXPECT_EQ(rep.sampled, eng.plannedSites());
}

TEST(CampaignEngine, ProtectionTurnsSdcIntoDetection)
{
    const std::pair<const char *, WorkloadFactory> inputs[] = {
        {"SCAN", scanFactory()},
        {"SHA", [] { return workloads::makeSha(1); }},
    };
    for (const auto &[name, factory] : inputs) {
        SCOPED_TRACE(name);
        auto ec = scanEngineCfg();
        ec.workload = name;
        ec.space.kinds = {FaultKind::StuckAtOne};
        ec.sites = 12;

        const auto prot = CampaignEngine(factory, ec).run();
        EXPECT_EQ(prot.overall.sdc, 0u);
        EXPECT_GT(prot.overall.detected, 0u);
        ASSERT_GT(prot.latencyCount, 0u);
        // Warped-DMR raises the alarm within a few pipeline lengths
        // of the first corrupted value; kernel-end detection waits
        // for the whole kernel.
        EXPECT_LT(prot.meanDetectionLatency(), 100.0);
        EXPECT_GT(double(prot.kernelLengthSum) / prot.latencyCount,
                  10.0 * prot.meanDetectionLatency());

        ec.dmr = dmr::DmrConfig::off();
        const auto unprot = CampaignEngine(factory, ec).run();
        EXPECT_EQ(unprot.overall.detected, 0u);
        EXPECT_GT(unprot.overall.sdc + unprot.overall.due, 0u);
    }
}

TEST(CampaignEngine, JsonCarriesTheHeadlineMetrics)
{
    auto ec = scanEngineCfg();
    ec.sites = 10;
    const auto json = CampaignEngine(scanFactory(), ec).run().toJson();
    EXPECT_NE(json.find("\"campaign.sampled\": 10"), std::string::npos);
    EXPECT_NE(json.find("campaign.coverage"), std::string::npos);
    EXPECT_NE(json.find("campaign.coverage.wilson_lo"),
              std::string::npos);
    EXPECT_NE(json.find("campaign.space.size"), std::string::npos);
}

TEST(CampaignReport, EveryReportCarriesTheFullSchema)
{
    // A default campaign — execution sites only, recovery off,
    // uniform sampling, Warped-DMR — still renders every
    // unconditional key of the schema.
    auto ec = scanEngineCfg();
    ec.sites = 10;
    const auto json = CampaignEngine(scanFactory(), ec).run().toJson();
    EXPECT_NE(json.find("\"campaign.schema\": 2,"), std::string::npos)
        << json;
    for (const char *key :
         {"\"campaign.scheme.id\"", "\"campaign.scheme.protect_fraction\"",
          "\"campaign.recovered_fraction\"", "\"campaign.recovery.mean\"",
          "\"campaign.escaped_rate\"", "\"campaign.ecc.corrected_rate\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // The blocks whose maps are empty stay out.
    EXPECT_EQ(json.find("campaign.strata."), std::string::npos);
    EXPECT_EQ(json.find("campaign.memkind."), std::string::npos);
}

// ---------------------------------------------------------------------
// the memory fault domain: site-space axes, classification, and
// engine invariants with ECC in the loop

namespace {

SiteSpaceConfig
memSpaceCfg()
{
    auto sc = smallSpaceCfg();
    sc.memEnabled = true;
    sc.memWords = 24;
    sc.memBits = 32;
    sc.memBanks = 4;
    sc.memRowWords = 3;
    return sc;
}

} // namespace

TEST(MemSiteSpace, MemoryBlockAppendsAfterTheExecBlock)
{
    const FaultSiteSpace execOnly(smallSpaceCfg(), 1000);
    const FaultSiteSpace both(memSpaceCfg(), 1000);
    // 3 kinds * 24 words * 32 bits * 16 windows.
    EXPECT_EQ(both.memSites(), 3u * 24 * 32 * 16);
    EXPECT_EQ(both.execSites(), execOnly.size());
    EXPECT_EQ(both.size(), both.execSites() + both.memSites());
    // The exec block's index layout is untouched by the appended
    // memory block: pre-memory indices decode to the same sites.
    for (std::uint64_t i = 0; i < execOnly.size(); i += 97) {
        const auto a = execOnly.site(i);
        const auto b = both.site(i);
        EXPECT_FALSE(b.isMemory);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.sm, b.sm);
        EXPECT_EQ(a.lane, b.lane);
        EXPECT_EQ(a.bit, b.bit);
        EXPECT_EQ(a.cycleBegin, b.cycleBegin);
    }
}

TEST(MemSiteSpace, DecodeCoversEveryMemoryAxisValue)
{
    const FaultSiteSpace space(memSpaceCfg(), 1000);
    std::set<std::tuple<int, Addr, unsigned, Cycle>> seen;
    for (std::uint64_t i = space.execSites(); i < space.size(); ++i) {
        const auto s = space.site(i);
        ASSERT_TRUE(s.isMemory);
        EXPECT_LT(s.memAddr, 24u * 4);
        EXPECT_EQ(s.memAddr % 4, 0u);
        EXPECT_LT(s.bit, 32u);
        EXPECT_EQ(s.cycleBegin, s.cycleEnd);
        EXPECT_LT(s.cycleEnd, 1000u);
        // Geometry annotation is consistent with the word index:
        // words fill a row (memRowWords), rows interleave over banks.
        const Addr word = s.memAddr / 4;
        EXPECT_EQ(s.memCol, word % 3);
        EXPECT_EQ(s.memBank, (word / 3) % 4);
        EXPECT_EQ(s.memRow, word / 3 / 4);
        seen.insert({static_cast<int>(s.memKind), s.memAddr, s.bit,
                     s.cycleBegin});
    }
    EXPECT_EQ(seen.size(), space.memSites());
}

TEST(MemSiteSpace, MemOnlySpaceDropsTheExecBlock)
{
    auto sc = memSpaceCfg();
    sc.execEnabled = false;
    const FaultSiteSpace space(sc, 1000);
    EXPECT_EQ(space.execSites(), 0u);
    EXPECT_EQ(space.size(), space.memSites());
    EXPECT_TRUE(space.site(0).isMemory);
}

TEST(MemSiteSpace, SignatureIgnoresMemoryAxesUntilEnabled)
{
    // Zero-diff guarantee: pre-memory checkpoints must keep
    // validating, so disabled memory knobs cannot perturb the hash.
    const FaultSiteSpace base(smallSpaceCfg(), 1000);
    auto sc = smallSpaceCfg();
    sc.memWords = 999;
    sc.memBanks = 2;
    EXPECT_EQ(FaultSiteSpace(sc, 1000).signature(), base.signature());

    // Enabled, every memory axis is load-bearing.
    const FaultSiteSpace mem(memSpaceCfg(), 1000);
    EXPECT_NE(mem.signature(), base.signature());
    auto mc = memSpaceCfg();
    mc.memWords = 25;
    EXPECT_NE(FaultSiteSpace(mc, 1000).signature(), mem.signature());
    mc = memSpaceCfg();
    mc.memKinds = {mem::MemFaultKind::Bit};
    EXPECT_NE(FaultSiteSpace(mc, 1000).signature(), mem.signature());
    mc = memSpaceCfg();
    mc.execEnabled = false;
    EXPECT_NE(FaultSiteSpace(mc, 1000).signature(), mem.signature());
}

TEST(MemSiteSpace, BadMemoryAxesPanic)
{
    setVerbose(false);
    auto sc = memSpaceCfg();
    sc.memWords = 0; // engine fills this in; a space can't be built
    EXPECT_THROW(FaultSiteSpace(sc, 1000), std::logic_error);
    sc = memSpaceCfg();
    sc.memBits = 33;
    EXPECT_THROW(FaultSiteSpace(sc, 1000), std::logic_error);
    sc = smallSpaceCfg();
    sc.execEnabled = false; // memEnabled defaults false: no domain
    EXPECT_THROW(FaultSiteSpace(sc, 1000), std::logic_error);
}

TEST(MemOutcome, ClassificationPriority)
{
    using fault::classifyMemOutcome;
    // Never-consumed dominates everything: a corrupted cell nobody
    // read is Masked even if the codec would have flagged it.
    EXPECT_EQ(classifyMemOutcome(false, true, true, true, true, false),
              OutcomeClass::Masked);
    // An uncorrectable read is the machine-check DUE, outranking
    // detection and corruption.
    EXPECT_EQ(classifyMemOutcome(true, true, false, true, false, false),
              OutcomeClass::Due);
    // A hang is a DUE too.
    EXPECT_EQ(classifyMemOutcome(true, false, false, false, true, true),
              OutcomeClass::Due);
    // DMR detection (e.g. a both-domains campaign where the load fed
    // an address computation) outranks output corruption.
    EXPECT_EQ(classifyMemOutcome(true, false, false, true, false,
                                 false),
              OutcomeClass::Detected);
    // Wrong output with no alarm anywhere: the memory SDC.
    EXPECT_EQ(classifyMemOutcome(true, false, false, false, false,
                                 false),
              OutcomeClass::Sdc);
    // Corrected reads with clean output land in the ECC bucket...
    EXPECT_EQ(classifyMemOutcome(true, false, true, false, false, true),
              OutcomeClass::EccCorrected);
    // ...and consumed-but-harmless corruption is architectural
    // masking.
    EXPECT_EQ(classifyMemOutcome(true, false, false, false, false,
                                 true),
              OutcomeClass::Masked);
}

TEST(MemOutcome, EccCorrectedCountsTowardTheProtectionSurface)
{
    OutcomeCounts c;
    c.add(OutcomeClass::EccCorrected, true);
    c.add(OutcomeClass::EccCorrected, true);
    c.add(OutcomeClass::Detected, true);
    c.add(OutcomeClass::Sdc, true);
    EXPECT_EQ(c.eccCorrected, 2u);
    EXPECT_EQ(c.total(), 4u);
    // Corrected runs were detected-and-repaired by the ECC
    // controller: they join the combined DMR+ECC coverage numerator.
    EXPECT_DOUBLE_EQ(c.coverage(), 3.0 / 4.0);
    EXPECT_DOUBLE_EQ(c.detectionRate(), 3.0 / 4.0);
}

TEST(MemOutcome, NoSchemeCoversMemoryDataFaults)
{
    // The paper's scoping argument, as an exhaustive registry fact:
    // redundant execution re-consumes the same loaded value, so
    // every execution-side scheme is blind to memory-data faults.
    for (const auto id : protection::allSchemes())
        EXPECT_FALSE(protection::schemeCoversMemory(id))
            << protection::schemeCliName(id);
}

namespace {

EngineConfig
memEngineCfg(arch::EccKind ecc)
{
    auto ec = scanEngineCfg();
    ec.gpu.memModel = arch::MemModel::Banked;
    ec.gpu.eccKind = ecc;
    ec.space.memEnabled = true; // memWords filled from the footprint
    ec.sites = 40;
    ec.seed = 17;
    return ec;
}

} // namespace

TEST(MemCampaign, OutcomeSumInvariantHoldsAcrossSeedsAndCodecs)
{
    // Every sampled site lands in exactly one class, whatever mix of
    // exec and memory sites the seed draws and whatever the codec.
    for (const auto ecc :
         {arch::EccKind::None, arch::EccKind::Secded,
          arch::EccKind::Chipkill}) {
        for (const std::uint64_t seed : {3ull, 9ull, 17ull}) {
            auto ec = memEngineCfg(ecc);
            ec.seed = seed;
            ec.jobs = 2;
            const auto rep = CampaignEngine(scanFactory(), ec).run();
            const auto &o = rep.overall;
            EXPECT_EQ(o.masked + o.detected + o.recovered +
                          o.eccCorrected + o.sdc + o.due,
                      rep.sampled);
            EXPECT_GT(rep.spaceSize, 0u);
            // Per-kind splits re-sum to the overall tally.
            std::uint64_t split = 0;
            for (const auto &[k, c] : rep.byKind)
                split += c.total();
            for (const auto &[k, c] : rep.byMemKind)
                split += c.total();
            EXPECT_EQ(split, rep.sampled);
        }
    }
}

TEST(MemCampaign, ReportIsDeterministicAndJobCountFree)
{
    auto ec = memEngineCfg(arch::EccKind::Secded);
    ec.jobs = 1;
    const auto seq = CampaignEngine(scanFactory(), ec).run().toJson();
    const auto again = CampaignEngine(scanFactory(), ec).run().toJson();
    EXPECT_EQ(seq, again);
    ec.jobs = 8;
    const auto par = CampaignEngine(scanFactory(), ec).run().toJson();
    EXPECT_EQ(seq, par);
    // The memory gauges actually made it into the report.
    EXPECT_NE(seq.find("campaign.ecc.corrected_rate"),
              std::string::npos);
    EXPECT_NE(seq.find("campaign.escaped_rate"), std::string::npos);
}

TEST(MemCampaign, SecdedAbsorbsSingleBitsThatEscapeUnderNoEcc)
{
    // The qualitative ECC story at campaign level, on a mem-only
    // space restricted to single-bit upsets: with no ECC some
    // consumed upsets corrupt the output (SDC); with SECDED every
    // consumed single-bit upset is corrected and none escape.
    auto ec = memEngineCfg(arch::EccKind::None);
    ec.space.execEnabled = false;
    ec.space.memKinds = {mem::MemFaultKind::Bit};
    ec.sites = 60;
    const auto none = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(none.overall.eccCorrected, 0u);
    EXPECT_GT(none.overall.sdc, 0u);

    ec.gpu.eccKind = arch::EccKind::Secded;
    const auto sec = CampaignEngine(scanFactory(), ec).run();
    EXPECT_GT(sec.overall.eccCorrected, 0u);
    EXPECT_EQ(sec.overall.sdc, 0u);
    EXPECT_EQ(sec.overall.due, 0u);
    // Identical site draws (same seed/space): activation parity.
    EXPECT_EQ(sec.sampled, none.sampled);
}

TEST(MemCampaign, ResumedMemoryCampaignMatchesUninterrupted)
{
    // Checkpoint/resume replays memory-site sampling identically
    // mid-campaign: same invariant as the exec-only resume test, on
    // a mixed-domain space with a codec in the loop.
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_mem_ckpt.json";
    std::remove(ckpt.c_str());

    auto ec = memEngineCfg(arch::EccKind::Chipkill);
    ec.jobs = 2;
    const auto full = CampaignEngine(scanFactory(), ec).run();

    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 10;
    ec.stopAfterChunks = 1;
    const auto partial = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(partial.sampled, 10u);

    ec.stopAfterChunks = 0;
    ec.jobs = 1;
    const auto resumed = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(resumed.sampled, full.sampled);
    EXPECT_EQ(resumed.toJson(), full.toJson());
    std::remove(ckpt.c_str());
}

TEST(MemCampaign, CodecChangeInvalidatesTheCheckpoint)
{
    // The codec participates in the config signature: a checkpoint
    // written under SECDED must not seed a chipkill campaign.
    const std::string ckpt =
        testing::TempDir() + "warped_campaign_mem_ckpt2.json";
    std::remove(ckpt.c_str());

    auto ec = memEngineCfg(arch::EccKind::Secded);
    ec.checkpointPath = ckpt;
    ec.checkpointEvery = 10;
    ec.stopAfterChunks = 1;
    CampaignEngine(scanFactory(), ec).run();

    ec.gpu.eccKind = arch::EccKind::Chipkill;
    const auto restarted = CampaignEngine(scanFactory(), ec).run();
    EXPECT_EQ(restarted.sampled, 10u); // restarted, not resumed to 20
    std::remove(ckpt.c_str());
}
