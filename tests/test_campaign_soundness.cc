/**
 * @file
 * Soundness of the campaign engine's shortcuts: the snapshot fork
 * (each run forks from the golden run at the exact cycle the horizon
 * table allows, on resident machines), the dormant-hook fast path and
 * the window-closed / first-detection early exits.
 *
 * For sampled sites, the engine's per-site verdict (read off a
 * one-run CampaignEngine::runRange delta) is compared with a
 * test-side reference that fully simulates the same site from cycle
 * 0 — a Gpu::launch with no snapshot and no stop predicate, through
 * an always-live hook, output verified whenever the fault activated —
 * and classifies it with classifyOutcome (classifyMemOutcome for
 * memory-cell sites, whose one stop is the machine check a
 * detected-uncorrectable read raises). Class, activation and
 * detection latency must all match. Then one sweep over the whole
 * sample, every site forked in turn on the same resident machines,
 * must fold to exactly what
 * the per-site verdicts fold to, so no state leaks from one site
 * into the next. The one allowed difference is the documented
 * first-detection exception: a site that detects and *then* trips a
 * simulator panic is DUE under full simulation and Detected under the
 * exit; such sites are counted. The golden activity oracle, which
 * settles a site without simulating it, must only settle sites that
 * never activate; the golden access log, which settles memory sites
 * the same way, must only settle sites full simulation classifies
 * alike. A targeted case pins the horizon
 * table: faults that open exactly on a cycle whose prefix already
 * looked at that cycle must fork below it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu.hh"
#include "gpu/snapshot.hh"
#include "mem/mem_fault.hh"
#include "protection/scheme_registry.hh"
#include "sm/plane_store.hh"

using namespace warped;
using namespace warped::fault;

namespace {

/** One site's verdict, from the engine or the reference. */
struct Verdict
{
    OutcomeClass cls = OutcomeClass::Masked;
    bool activated = false;
    bool hasLatency = false;
    std::uint64_t latency = 0;
    bool aborted = false;
    /** Memory reference only: a flagged read ended the run. */
    bool machineCheck = false;
};

/** Forwards to a FaultInjector but keeps the default liveness
 *  (always live), so a run through it takes the per-lane hook path on
 *  every SM and cycle — the pre-shortcut machine. */
class AlwaysLive final : public func::FaultHook
{
  public:
    explicit AlwaysLive(FaultInjector &inj) : inj_(inj) {}

    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        return inj_.apply(pure, ctx);
    }

  private:
    FaultInjector &inj_;
};

/** Classify a finished exec-site run like the engine does. */
Verdict
classifyExec(const gpu::LaunchResult &r, const FaultInjector &inj,
             workloads::Workload &w, const gpu::Gpu &g,
             const EngineConfig &cfg)
{
    Verdict v;
    v.activated = inj.activations() > 0;
    const bool detected = r.dmr.errorsDetected > 0;
    const bool recoveredClean =
        cfg.recovery.enabled && detected && r.recovery.giveUps == 0;
    const bool outputOk =
        v.activated && !r.hung && (!detected || recoveredClean)
            ? w.verify(g)
            : true;
    v.cls = classifyOutcome(v.activated, detected, r.hung, outputOk,
                            recoveredClean);
    if ((v.cls == OutcomeClass::Detected ||
         v.cls == OutcomeClass::Recovered) &&
        !r.dmr.errorLog.empty()) {
        const Cycle det = r.dmr.errorLog.front().cycle;
        const Cycle act = inj.firstActivationCycle();
        v.latency = det >= act ? det - act : 0;
        v.hasLatency = true;
    }
    return v;
}

/** An aborted run (simulator panic): hang-DUE. */
Verdict
abortedVerdict()
{
    Verdict v;
    v.activated = true;
    v.cls = OutcomeClass::Due;
    v.aborted = true;
    return v;
}

/** Full simulation of @p spec, classified like the engine does but
 *  with no shortcut of any kind: from cycle 0, no stop predicate, no
 *  dormant-hook fast path. The simulator is deterministic, so a panic
 *  classifies the site on the first attempt. */
Verdict
reference(const FaultSpec &spec, Cycle span,
          const WorkloadFactory &factory, const EngineConfig &cfg)
{
    FaultInjector inj;
    inj.add(spec);
    AlwaysLive hook(inj);
    auto w = factory();
    try {
        gpu::Gpu g(cfg.gpu, cfg.dmr, /*seed=*/1, &hook, cfg.recovery,
                   cfg.scheme);
        w->setup(g);
        const auto r = g.launch(w->program(), w->gridBlocks(),
                                w->blockThreads(), span * 20 + 100000);
        return classifyExec(r, inj, *w, g, cfg);
    } catch (const std::exception &) {
        return abortedVerdict();
    }
}

/** Full simulation of memory site @p spec from cycle 0. A
 *  detected-uncorrectable read is a machine check: the run ends at
 *  it, a DUE. */
Verdict
memReference(const FaultSpec &spec, Cycle span,
             const WorkloadFactory &factory, const EngineConfig &cfg)
{
    auto w = factory();
    // Outside the try: a panic thrown once the plane has flagged a
    // read comes after the machine check that ended the run, so the
    // run is that DUE, not an aborted one.
    mem::MemFaultPlane plane(cfg.gpu.eccKind);
    Verdict v;
    try {
        gpu::Gpu g(cfg.gpu, cfg.dmr, /*seed=*/1, nullptr, cfg.recovery,
                   cfg.scheme);
        w->setup(g);
        plane.inject(spec.memAddr, spec.memKind, spec.bit,
                     spec.cycleBegin);
        g.mem().attachFaultPlane(&plane);
        const gpu::StopPredicate stop =
            [&plane](Cycle, const gpu::LaunchLoop &) {
                return plane.uncorrectable() > 0;
            };
        const auto r = g.launch(w->program(), w->gridBlocks(),
                                w->blockThreads(), span * 20 + 100000,
                                stop);
        const bool outputOk =
            r.hung || plane.uncorrectable() > 0 ? true : w->verify(g);
        g.mem().attachFaultPlane(nullptr);
        v.activated = plane.consumedReads() > 0;
        v.cls = classifyMemOutcome(v.activated, plane.uncorrectable() > 0,
                                   plane.corrected() > 0,
                                   r.dmr.errorsDetected > 0, r.hung,
                                   outputOk);
    } catch (const std::exception &) {
        if (plane.uncorrectable() == 0)
            return abortedVerdict();
        v.activated = true;
        v.cls = OutcomeClass::Due;
    }
    v.machineCheck = plane.uncorrectable() > 0;
    return v;
}

/** The engine's verdict for run @p i, read off its one-run delta. */
Verdict
engineVerdict(CampaignEngine &engine, std::uint64_t i)
{
    const auto rep = engine.runRange(i, 1);
    const auto &o = rep.overall;
    EXPECT_EQ(o.total(), 1u);
    Verdict v;
    if (o.detected)
        v.cls = OutcomeClass::Detected;
    else if (o.recovered)
        v.cls = OutcomeClass::Recovered;
    else if (o.eccCorrected)
        v.cls = OutcomeClass::EccCorrected;
    else if (o.sdc)
        v.cls = OutcomeClass::Sdc;
    else if (o.due)
        v.cls = OutcomeClass::Due;
    v.activated = !(o.masked && o.notActivated);
    v.hasLatency = rep.latencyCount > 0;
    v.latency = rep.latencySum;
    v.aborted = rep.abortedRuns > 0;
    return v;
}

/**
 * One sweep over runs [0, verdicts.size()) — jobs 1, so every site is
 * forked in turn on one resident golden/site machine pair — must fold
 * to what the per-site @p verdicts fold to, and must simulate exactly
 * the sites no golden log settles.
 */
void
expectSweepFolds(CampaignEngine &engine, const std::vector<Verdict> &verdicts,
                 std::uint64_t settled)
{
    const auto rep = engine.runRange(0, verdicts.size());
    OutcomeCounts want;
    std::uint64_t latencySum = 0, latencyCount = 0, aborted = 0;
    for (const Verdict &v : verdicts) {
        want.add(v.cls, v.activated);
        if (v.hasLatency) {
            latencySum += v.latency;
            ++latencyCount;
        }
        aborted += v.aborted;
    }
    SCOPED_TRACE("one sweep over the whole sample");
    EXPECT_EQ(rep.overall.masked, want.masked);
    EXPECT_EQ(rep.overall.notActivated, want.notActivated);
    EXPECT_EQ(rep.overall.detected, want.detected);
    EXPECT_EQ(rep.overall.recovered, want.recovered);
    EXPECT_EQ(rep.overall.eccCorrected, want.eccCorrected);
    EXPECT_EQ(rep.overall.sdc, want.sdc);
    EXPECT_EQ(rep.overall.due, want.due);
    EXPECT_EQ(rep.latencySum, latencySum);
    EXPECT_EQ(rep.latencyCount, latencyCount);
    EXPECT_EQ(rep.abortedRuns, aborted);
    const auto &t = engine.forkTelemetry();
    EXPECT_EQ(t.sitesSimulated, verdicts.size() - settled);
    EXPECT_EQ(t.sweepForks + t.rungForks, t.sitesSimulated);
}

struct SoundnessCase
{
    const char *name;
    WorkloadFactory factory;
    protection::SchemeId scheme;
    bool recovery;
    /** OracleSoundness's floor on the share of not-activated sites
     *  the oracle settles, in percent: 100 where it settled every
     *  one, 95 for SCAN (97-99 % measured). */
    unsigned oracleFloorPct;
};

void
PrintTo(const SoundnessCase &c, std::ostream *os)
{
    *os << c.name;
}

/** The campaign configuration of case @p tc on the 4-SM test GPU. */
EngineConfig
caseConfig(const SoundnessCase &tc)
{
    EngineConfig cfg;
    cfg.workload = tc.name;
    cfg.gpu.numSms = 4;
    cfg.seed = 1009;
    cfg.jobs = 1;
    cfg.scheme.id = tc.scheme;
    if (tc.scheme == protection::SchemeId::PartialThread)
        cfg.scheme.protectFraction = 0.5;
    if (tc.recovery)
        cfg.recovery = recovery::RecoveryConfig::paperDefault();
    return cfg;
}

std::string
siteTrace(std::uint64_t i, const FaultSpec &spec)
{
    return "run " + std::to_string(i) + " (" + faultKindName(spec.kind) +
           ", sm " + std::to_string(spec.sm) + ", lane " +
           std::to_string(spec.lane) + ", bit " + std::to_string(spec.bit) +
           ", cycle " + std::to_string(spec.cycleBegin) + ")";
}

class ExitSoundness : public ::testing::TestWithParam<SoundnessCase>
{
};

TEST_P(ExitSoundness, EngineMatchesFullSimulation)
{
    setVerbose(false);
    const auto &tc = GetParam();
    EngineConfig cfg = caseConfig(tc);
    cfg.sites = 40;
    // Few transient windows so stuck-at sites (which never close their
    // window) make up a third of the sample.
    cfg.space.cycleWindows = 4;
    CampaignEngine engine(tc.factory, cfg);
    engine.prepare();

    std::uint64_t transient = 0, stuck = 0, notActivated = 0,
                  detected = 0, reclassified = 0, forked = 0, settled = 0;
    std::vector<Verdict> verdicts;
    for (std::uint64_t i = 0; i < engine.plannedSites(); ++i) {
        const auto spec =
            engine.space().site(engine.space().sampleIndex(cfg.seed, i));
        forked += engine.ladder().execFork(spec.cycleBegin) > 0;
        settled += settledByOracle(engine.ladder(), spec);
        const Verdict got = engineVerdict(engine, i);
        verdicts.push_back(got);
        const Verdict want =
            reference(spec, engine.span(), tc.factory, cfg);
        (spec.kind == FaultKind::TransientBitFlip ? transient : stuck)++;
        notActivated += !want.activated;
        detected += want.cls == OutcomeClass::Detected ||
                    want.cls == OutcomeClass::Recovered;

        if (want.aborted && got.cls == OutcomeClass::Detected &&
            !tc.recovery) {
            // Detected, then panicked: the allowed reclassification.
            ++reclassified;
            continue;
        }
        SCOPED_TRACE(siteTrace(i, spec));
        EXPECT_EQ(outcomeClassName(got.cls), outcomeClassName(want.cls));
        EXPECT_EQ(got.activated, want.activated);
        EXPECT_EQ(got.hasLatency, want.hasLatency);
        EXPECT_EQ(got.latency, want.latency);
        EXPECT_EQ(got.aborted, want.aborted);
    }
    std::printf("%s: %llu transient + %llu stuck-at sites (%llu forked "
                "past cycle 0), %llu not activated (%llu settled by "
                "oracle), %llu detected, %llu detected-then-panic "
                "reclassified\n",
                tc.name, static_cast<unsigned long long>(transient),
                static_cast<unsigned long long>(stuck),
                static_cast<unsigned long long>(forked),
                static_cast<unsigned long long>(notActivated),
                static_cast<unsigned long long>(settled),
                static_cast<unsigned long long>(detected),
                static_cast<unsigned long long>(reclassified));
    expectSweepFolds(engine, verdicts, settled);
    // The sample must exercise both fault kinds, both exits and the
    // fork — except under R-Naive, whose modelled second run applies
    // the hook at now + 2^40: the horizon passes every pulse within
    // the first cycles, so its sites fork at cycle 0.
    EXPECT_GT(transient, 0u);
    EXPECT_GT(stuck, 0u);
    EXPECT_GT(notActivated, 0u);
    EXPECT_GT(detected, 0u);
    if (tc.scheme == protection::SchemeId::RNaive) {
        EXPECT_EQ(forked, 0u);
    } else {
        EXPECT_GT(forked, 0u);
    }
}

TEST(ForkSoundness, MemorySitesOnBankedSecdedMatchFullSimulation)
{
    setVerbose(false);
    const WorkloadFactory factory = [] {
        return workloads::makeMatrixMul(32);
    };
    EngineConfig cfg;
    cfg.workload = "matrixmul_mem";
    cfg.gpu.numSms = 4;
    cfg.gpu.memModel = arch::MemModel::Banked;
    cfg.gpu.eccKind = arch::EccKind::Secded;
    cfg.space.memEnabled = true;
    cfg.space.execEnabled = false;
    cfg.seed = 1009;
    cfg.sites = 60;
    cfg.jobs = 1;
    CampaignEngine engine(factory, cfg);
    engine.prepare();

    std::uint64_t forked = 0, read = 0, corrected = 0, settled = 0;
    std::vector<Verdict> verdicts;
    for (std::uint64_t i = 0; i < engine.plannedSites(); ++i) {
        const auto spec =
            engine.space().site(engine.space().sampleIndex(cfg.seed, i));
        ASSERT_TRUE(spec.isMemory);
        // Memory sites fork at their strike, past the first rung.
        forked += spec.cycleBegin > engine.ladder().spacing();
        settled += settledByAccessLog(*engine.accessLog(), spec,
                                      cfg.gpu.eccKind) !=
                   MemSettlement::Simulate;
        const Verdict got = engineVerdict(engine, i);
        verdicts.push_back(got);
        const Verdict want =
            memReference(spec, engine.span(), factory, cfg);
        read += want.activated;
        corrected += want.cls == OutcomeClass::EccCorrected;
        SCOPED_TRACE("memory run " + std::to_string(i) + " (addr " +
                     std::to_string(spec.memAddr) + ", strike cycle " +
                     std::to_string(spec.cycleBegin) + ")");
        EXPECT_EQ(outcomeClassName(got.cls), outcomeClassName(want.cls));
        EXPECT_EQ(got.activated, want.activated);
        EXPECT_EQ(got.aborted, want.aborted);
    }
    expectSweepFolds(engine, verdicts, settled);
    EXPECT_GT(forked, 0u);
    EXPECT_GT(read, 0u);
    EXPECT_GT(corrected, 0u);
}

/**
 * The horizon table. With a one-entry ReplayQ, eager re-executions
 * verify at now + 1, so the prefix before some cycles already called
 * the hook at that very cycle. A pulse opening exactly there must fork
 * below it: full simulation sees the eager verification corrupted and
 * detects it. Such cycles are probed on every SM through a test-side
 * fork built like the engine's (a golden machine restored from the
 * rung at or before Ladder::execFork, advanced to it, captured and
 * restored into a site machine that runs under the engine's stop
 * predicate) against full simulation.
 */
TEST(ForkSoundness, PulsesOnALookedAheadCycleForkBelowIt)
{
    setVerbose(false);
    const WorkloadFactory factory = [] {
        return workloads::makeMatrixMul(32);
    };
    EngineConfig cfg;
    cfg.workload = "matrixmul_q1";
    cfg.gpu.numSms = 2;
    cfg.dmr.replayQSize = 1;
    cfg.sites = 1;
    CampaignEngine engine(factory, cfg);
    engine.prepare();
    const gpu::Ladder &ladder = engine.ladder();

    auto w = factory();
    gpu::Gpu golden(cfg.gpu, cfg.dmr, /*seed=*/1, nullptr, cfg.recovery,
                    cfg.scheme);
    gpu::Gpu site(cfg.gpu, cfg.dmr, /*seed=*/1, nullptr, cfg.recovery,
                  cfg.scheme);
    w->setup(site);
    const auto planes = std::make_shared<sm::PlaneStore>(cfg.gpu.warpSize);
    const auto forkedVerdict = [&](const FaultSpec &spec) {
        const Cycle fork = ladder.execFork(spec.cycleBegin);
        golden.restore(w->program(), w->gridBlocks(), w->blockThreads(),
                       ladder.rungAt(fork));
        golden.advanceTo(fork);
        EXPECT_EQ(golden.cycle(), fork);
        site.restore(w->program(), w->gridBlocks(), w->blockThreads(),
                     golden.capture(planes));
        FaultInjector inj;
        inj.add(spec);
        const gpu::StopPredicate stop =
            [&inj](Cycle cycle, const gpu::LaunchLoop &loop) {
                if (inj.activations() == 0)
                    return inj.windowsClosedBy(cycle);
                return loop.detections() > 0;
            };
        site.setHook(&inj);
        const auto r = site.finish(engine.span() * 20 + 100000, stop);
        const Verdict v = classifyExec(r, inj, *w, site, cfg);
        site.setHook(nullptr);
        return v;
    };

    // Every looked-ahead cycle, thinned to about 16 probes.
    std::vector<Cycle> lookahead;
    for (Cycle c = 1; c < engine.span(); ++c)
        if (ladder.horizon(c) > c)
            lookahead.push_back(c);
    ASSERT_FALSE(lookahead.empty()) << "no prefix looked ahead";
    unsigned probed = 0, detected = 0;
    const std::size_t stride = std::max<std::size_t>(1, lookahead.size() / 16);
    for (std::size_t k = 0; k < lookahead.size(); k += stride) {
        const Cycle c = lookahead[k];
        EXPECT_LT(ladder.execFork(c), c);
        for (unsigned sm = 0; sm < cfg.gpu.numSms; ++sm) {
            FaultSpec spec;
            spec.sm = sm;
            spec.lane = 0;
            spec.bit = 0;
            spec.cycleBegin = c;
            spec.cycleEnd = c;
            const Verdict want =
                reference(spec, engine.span(), factory, cfg);
            const Verdict got = forkedVerdict(spec);
            SCOPED_TRACE("pulse at looked-ahead cycle " + std::to_string(c) +
                         " on sm " + std::to_string(sm));
            EXPECT_EQ(outcomeClassName(got.cls),
                      outcomeClassName(want.cls));
            EXPECT_EQ(got.activated, want.activated);
            EXPECT_EQ(got.latency, want.latency);
            ++probed;
            detected += want.cls == OutcomeClass::Detected;
        }
    }
    EXPECT_GT(probed, 0u);
    EXPECT_GT(detected, 0u);
}

/**
 * The golden activity oracle. Every sampled site settledByOracle
 * settles must be Masked and not activated under full simulation
 * (reference: always live, from cycle 0, no exit), and the oracle must
 * settle at least a measured share of the sites that never activate,
 * so one that quietly settles nothing fails. The sample uses the
 * default one-pulse-per-cycle windows, so it is nearly all transient
 * sites.
 */
class OracleSoundness : public ::testing::TestWithParam<SoundnessCase>
{
};

TEST_P(OracleSoundness, SettledSitesNeverActivate)
{
    setVerbose(false);
    const auto &tc = GetParam();
    EngineConfig cfg = caseConfig(tc);
    cfg.sites = 120;
    CampaignEngine engine(tc.factory, cfg);
    engine.prepare();

    std::uint64_t settled = 0, notActivated = 0;
    for (std::uint64_t i = 0; i < engine.plannedSites(); ++i) {
        const auto spec =
            engine.space().site(engine.space().sampleIndex(cfg.seed, i));
        const bool settles = settledByOracle(engine.ladder(), spec);
        const Verdict want =
            reference(spec, engine.span(), tc.factory, cfg);
        settled += settles;
        notActivated += !want.activated;
        if (settles) {
            SCOPED_TRACE(siteTrace(i, spec));
            EXPECT_FALSE(want.activated);
            EXPECT_STREQ(outcomeClassName(want.cls), "masked");
        }
    }
    // Settled sites never reach a machine.
    engine.runRange(0, engine.plannedSites());
    EXPECT_EQ(engine.forkTelemetry().sitesSimulated,
              engine.plannedSites() - settled);
    std::printf("%s: oracle settled %llu of %llu not-activated sites "
                "(%llu sampled)\n",
                tc.name, static_cast<unsigned long long>(settled),
                static_cast<unsigned long long>(notActivated),
                static_cast<unsigned long long>(engine.plannedSites()));
    EXPECT_GT(settled, 0u);
    // Precision floor: settled / not activated, in percent.
    EXPECT_GE(settled * 100, notActivated * tc.oracleFloorPct);
}

/**
 * The golden access log. Every sampled memory site is classified by
 * the engine (settled from the log where it can be, else simulated
 * from a rung) and by full simulation from cycle 0 with no log
 * (memReference); class, activation and abort must match. The log
 * must settle every not-read, every corrected and every
 * machine-checked site, and the share of memory sites it settles must
 * reach a measured floor, so a log that quietly settles nothing fails.
 */
struct MemOracleCase
{
    const char *name;
    WorkloadFactory factory;
    arch::MemModel memModel;
    arch::EccKind ecc;
    bool recovery;
    /** Execution sites in the space too (--fault-domain both). */
    bool both;
    /** Floor on settled / memory sites, in percent (a few points
     *  under the share measured at seed 1009). */
    unsigned floorPct;
    /** Upset shapes sampled (empty: the default three). */
    std::vector<mem::MemFaultKind> memKinds = {};
    /** Full simulation aborts some sampled sites (checked). */
    bool aborts = false;
};

/** A workload whose host check panics on a wrong output instead of
 *  failing, the way a simulator sanity check tripped by a corrupt
 *  value does: such a run aborts. */
class PanicsOnWrongOutput final : public workloads::Workload
{
  public:
    explicit PanicsOnWrongOutput(std::unique_ptr<workloads::Workload> w)
        : w_(std::move(w))
    {
    }
    const std::string &name() const override { return w_->name(); }
    const std::string &category() const override { return w_->category(); }
    void setup(gpu::Gpu &g) override { w_->setup(g); }
    const isa::Program &program() const override { return w_->program(); }
    unsigned gridBlocks() const override { return w_->gridBlocks(); }
    unsigned blockThreads() const override { return w_->blockThreads(); }
    std::size_t bytesIn() const override { return w_->bytesIn(); }
    std::size_t bytesOut() const override { return w_->bytesOut(); }
    bool
    verify(const gpu::Gpu &g) const override
    {
        if (!w_->verify(g))
            warped_panic(name(), ": output corrupt");
        return true;
    }

  private:
    std::unique_ptr<workloads::Workload> w_;
};

void
PrintTo(const MemOracleCase &c, std::ostream *os)
{
    *os << c.name;
}

class MemOracleSoundness : public ::testing::TestWithParam<MemOracleCase>
{
};

TEST_P(MemOracleSoundness, SettledSitesMatchFullSimulation)
{
    setVerbose(false);
    const auto &tc = GetParam();
    EngineConfig cfg;
    cfg.workload = tc.name;
    cfg.gpu.numSms = 4;
    cfg.gpu.memModel = tc.memModel;
    cfg.gpu.eccKind = tc.ecc;
    cfg.space.memEnabled = true;
    cfg.space.execEnabled = tc.both;
    if (!tc.memKinds.empty())
        cfg.space.memKinds = tc.memKinds;
    if (tc.recovery)
        cfg.recovery = recovery::RecoveryConfig::paperDefault();
    cfg.seed = 1009;
    cfg.sites = 120;
    cfg.jobs = 1;
    CampaignEngine engine(tc.factory, cfg);
    engine.prepare();
    ASSERT_NE(engine.accessLog(), nullptr);

    std::uint64_t memSites = 0, notRead = 0, corrected = 0,
                  uncorrectable = 0, aborted = 0, wantNotRead = 0,
                  wantCorrected = 0, wantUncorrectable = 0,
                  oracleSettled = 0;
    std::vector<Verdict> verdicts;
    for (std::uint64_t i = 0; i < engine.plannedSites(); ++i) {
        const auto spec =
            engine.space().site(engine.space().sampleIndex(cfg.seed, i));
        const Verdict got = engineVerdict(engine, i);
        verdicts.push_back(got);
        if (!spec.isMemory) {
            oracleSettled += settledByOracle(engine.ladder(), spec);
            continue;
        }
        ++memSites;
        const auto settled =
            settledByAccessLog(*engine.accessLog(), spec, tc.ecc);
        notRead += settled == MemSettlement::NotRead;
        corrected += settled == MemSettlement::Corrected;
        uncorrectable += settled == MemSettlement::Uncorrectable;
        const Verdict want =
            memReference(spec, engine.span(), tc.factory, cfg);
        aborted += want.aborted;
        wantNotRead += !want.activated;
        wantCorrected += want.cls == OutcomeClass::EccCorrected;
        wantUncorrectable += want.machineCheck;
        SCOPED_TRACE("memory run " + std::to_string(i) + " (" +
                     mem::memFaultKindSlug(spec.memKind) + ", addr " +
                     std::to_string(spec.memAddr) + ", bit " +
                     std::to_string(spec.bit) + ", strike cycle " +
                     std::to_string(spec.cycleBegin) + ")");
        EXPECT_EQ(outcomeClassName(got.cls), outcomeClassName(want.cls));
        EXPECT_EQ(got.activated, want.activated);
        EXPECT_EQ(got.aborted, want.aborted);
    }
    const std::uint64_t settled = notRead + corrected + uncorrectable;
    std::printf("%s: %llu memory sites, settled %llu not read + %llu "
                "corrected + %llu machine check, %llu aborted under full "
                "simulation; log %zu bytes\n",
                tc.name, static_cast<unsigned long long>(memSites),
                static_cast<unsigned long long>(notRead),
                static_cast<unsigned long long>(corrected),
                static_cast<unsigned long long>(uncorrectable),
                static_cast<unsigned long long>(aborted),
                engine.accessLog()->bytes());
    expectSweepFolds(engine, verdicts, settled + oracleSettled);
    EXPECT_GT(memSites, 0u);
    EXPECT_EQ(aborted > 0, tc.aborts);
    // The log is exact for the classes it settles.
    EXPECT_EQ(notRead, wantNotRead);
    EXPECT_EQ(corrected, wantCorrected);
    EXPECT_EQ(uncorrectable, wantUncorrectable);
    EXPECT_GE(settled * 100, memSites * tc.floorPct);
}

const WorkloadFactory kMatrixMul32 = [] {
    return workloads::makeMatrixMul(32);
};
const WorkloadFactory kPanicking = [] {
    return std::make_unique<PanicsOnWrongOutput>(
        workloads::makeMatrixMul(32));
};

INSTANTIATE_TEST_SUITE_P(
    Sites, MemOracleSoundness,
    ::testing::Values(
        MemOracleCase{"matrixmul_secded", kMatrixMul32,
                      arch::MemModel::Banked, arch::EccKind::Secded, false,
                      false, 95},
        MemOracleCase{"matrixmul_flat_none", kMatrixMul32,
                      arch::MemModel::Flat, arch::EccKind::None, false,
                      false, 85},
        MemOracleCase{"matrixmul_chipkill", kMatrixMul32,
                      arch::MemModel::Banked, arch::EccKind::Chipkill,
                      false, false, 95},
        MemOracleCase{"sha_secded", [] { return workloads::makeSha(4); },
                      arch::MemModel::Banked, arch::EccKind::Secded, false,
                      false, 95},
        MemOracleCase{"scan_secded", [] { return workloads::makeScan(4); },
                      arch::MemModel::Banked, arch::EccKind::Secded, false,
                      false, 95},
        MemOracleCase{"bfs_chipkill", [] { return workloads::makeBfs(4); },
                      arch::MemModel::Banked, arch::EccKind::Chipkill,
                      false, false, 95},
        MemOracleCase{"sha_secded_recovery",
                      [] { return workloads::makeSha(4); },
                      arch::MemModel::Banked, arch::EccKind::Secded, true,
                      false, 95},
        MemOracleCase{"matrixmul_both", kMatrixMul32,
                      arch::MemModel::Banked, arch::EccKind::Secded, false,
                      true, 95},
        // With ECC off every read of a double-bit upset reaches the
        // lane, and a corrupt output makes this workload's host check
        // panic: those runs abort, which no settled verdict may hide.
        MemOracleCase{"matrixmul_none_double_aborting", kPanicking,
                      arch::MemModel::Banked, arch::EccKind::None, false,
                      false, 85, {mem::MemFaultKind::DoubleBit}, true},
        // Under SECDED every read of a double-bit upset is flagged: a
        // machine check ends the run before the panicking host check,
        // so every read site settles and none aborts.
        MemOracleCase{"matrixmul_secded_double", kPanicking,
                      arch::MemModel::Banked, arch::EccKind::Secded, false,
                      false, 100, {mem::MemFaultKind::DoubleBit}}),
    [](const ::testing::TestParamInfo<MemOracleCase> &info) {
        return std::string(info.param.name);
    });

using protection::SchemeId;

const WorkloadFactory kMatrixMul = [] {
    return workloads::makeMatrixMul(32);
};
const WorkloadFactory kSha = [] { return workloads::makeSha(2); };
const WorkloadFactory kScan = [] { return workloads::makeScan(2); };

const SoundnessCase kCases[] = {
    {"matrixmul", kMatrixMul, SchemeId::WarpedDmr, false, 100},
    {"matrixmul_recovery", kMatrixMul, SchemeId::WarpedDmr, true, 100},
    {"sha", kSha, SchemeId::WarpedDmr, false, 100},
    {"sha_recovery", kSha, SchemeId::WarpedDmr, true, 100},
    {"scan", kScan, SchemeId::WarpedDmr, false, 95},
    {"scan_recovery", kScan, SchemeId::WarpedDmr, true, 95},
    // The window-closed exit applies to every scheme.
    {"matrixmul_rnaive", kMatrixMul, SchemeId::RNaive, false, 100},
    {"sha_replay_compare", kSha, SchemeId::ReplayCompare, false, 100},
};

const auto kCaseName =
    [](const ::testing::TestParamInfo<SoundnessCase> &info) {
        return std::string(info.param.name);
    };

INSTANTIATE_TEST_SUITE_P(Sites, ExitSoundness, ::testing::ValuesIn(kCases),
                         kCaseName);

INSTANTIATE_TEST_SUITE_P(
    Sites, OracleSoundness,
    ::testing::Values(
        kCases[0], kCases[1], kCases[2], kCases[3], kCases[4], kCases[5],
        kCases[6], kCases[7],
        SoundnessCase{"matrixmul_rthread", kMatrixMul, SchemeId::RThread,
                      false, 100},
        SoundnessCase{"scan_partial_thread", kScan,
                      SchemeId::PartialThread, false, 95}),
    kCaseName);

} // namespace
