/**
 * @file
 * Soundness of the campaign engine's shortcuts: the dormant-hook fast
 * path and the window-closed / first-detection early exits.
 *
 * For sampled sites, the engine's per-site verdict (read off a
 * one-run CampaignEngine::runRange delta) is compared with a
 * test-side reference that fully simulates the same site — a
 * Gpu::launch with no stop predicate, through an always-live hook,
 * output verified whenever the fault activated — and classifies it
 * with classifyOutcome. Class,
 * activation and detection latency must all match. The one allowed
 * difference is the documented first-detection exception: a site
 * that detects and *then* trips a simulator panic is DUE under full
 * simulation and Detected under the exit; such sites are counted.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu.hh"
#include "protection/scheme_registry.hh"

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

/** Full simulation of @p spec, classified like the engine does but
 *  with no shortcut of any kind: no stop predicate, no dormant-hook
 *  fast path. */
Verdict
reference(const FaultSpec &spec, Cycle span,
          const WorkloadFactory &factory, const EngineConfig &cfg)
{
    Verdict v;
    for (unsigned attempt = 0; attempt < 2; ++attempt) {
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
            v.activated = inj.activations() > 0;
            const bool detected = r.dmr.errorsDetected > 0;
            const bool recoveredClean = cfg.recovery.enabled &&
                                        detected &&
                                        r.recovery.giveUps == 0;
            const bool outputOk =
                v.activated && !r.hung ? w->verify(g) : true;
            v.cls = classifyOutcome(v.activated, detected, r.hung,
                                    outputOk, recoveredClean);
            if ((v.cls == OutcomeClass::Detected ||
                 v.cls == OutcomeClass::Recovered) &&
                !r.dmr.errorLog.empty()) {
                const Cycle det = r.dmr.errorLog.front().cycle;
                const Cycle act = inj.firstActivationCycle();
                v.latency = det >= act ? det - act : 0;
                v.hasLatency = true;
            }
            return v;
        } catch (const std::exception &) {
            if (attempt == 1) {
                v = Verdict{};
                v.activated = true;
                v.cls = OutcomeClass::Due;
                v.aborted = true;
            }
        }
    }
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

struct SoundnessCase
{
    const char *name;
    WorkloadFactory factory;
    protection::SchemeId scheme;
    bool recovery;
};

void
PrintTo(const SoundnessCase &c, std::ostream *os)
{
    *os << c.name;
}

class ExitSoundness : public ::testing::TestWithParam<SoundnessCase>
{
};

TEST_P(ExitSoundness, EngineMatchesFullSimulation)
{
    setVerbose(false);
    const auto &tc = GetParam();
    EngineConfig cfg;
    cfg.workload = tc.name;
    cfg.gpu.numSms = 4;
    cfg.seed = 1009;
    cfg.sites = 40;
    cfg.jobs = 1;
    cfg.scheme.id = tc.scheme;
    // Few transient windows so stuck-at sites (which never close their
    // window) make up a third of the sample.
    cfg.space.cycleWindows = 4;
    if (tc.recovery)
        cfg.recovery = recovery::RecoveryConfig::paperDefault();
    CampaignEngine engine(tc.factory, cfg);
    engine.prepare();

    std::uint64_t transient = 0, stuck = 0, notActivated = 0,
                  detected = 0, reclassified = 0;
    for (std::uint64_t i = 0; i < engine.plannedSites(); ++i) {
        const auto spec =
            engine.space().site(engine.space().sampleIndex(cfg.seed, i));
        const Verdict got = engineVerdict(engine, i);
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
        SCOPED_TRACE("run " + std::to_string(i) + " (" +
                     faultKindName(spec.kind) + ", sm " +
                     std::to_string(spec.sm) + ", lane " +
                     std::to_string(spec.lane) + ", bit " +
                     std::to_string(spec.bit) + ")");
        EXPECT_EQ(outcomeClassName(got.cls), outcomeClassName(want.cls));
        EXPECT_EQ(got.activated, want.activated);
        EXPECT_EQ(got.hasLatency, want.hasLatency);
        EXPECT_EQ(got.latency, want.latency);
        EXPECT_EQ(got.aborted, want.aborted);
    }
    std::printf("%s: %llu transient + %llu stuck-at sites, %llu not "
                "activated, %llu detected, %llu detected-then-panic "
                "reclassified\n",
                tc.name, static_cast<unsigned long long>(transient),
                static_cast<unsigned long long>(stuck),
                static_cast<unsigned long long>(notActivated),
                static_cast<unsigned long long>(detected),
                static_cast<unsigned long long>(reclassified));
    // The sample must exercise both fault kinds and both exits.
    EXPECT_GT(transient, 0u);
    EXPECT_GT(stuck, 0u);
    EXPECT_GT(notActivated, 0u);
    EXPECT_GT(detected, 0u);
}

using protection::SchemeId;

const WorkloadFactory kMatrixMul = [] {
    return workloads::makeMatrixMul(32);
};
const WorkloadFactory kSha = [] { return workloads::makeSha(2); };
const WorkloadFactory kScan = [] { return workloads::makeScan(2); };

INSTANTIATE_TEST_SUITE_P(
    Sites, ExitSoundness,
    ::testing::Values(
        SoundnessCase{"matrixmul", kMatrixMul, SchemeId::WarpedDmr, false},
        SoundnessCase{"matrixmul_recovery", kMatrixMul,
                      SchemeId::WarpedDmr, true},
        SoundnessCase{"sha", kSha, SchemeId::WarpedDmr, false},
        SoundnessCase{"sha_recovery", kSha, SchemeId::WarpedDmr, true},
        SoundnessCase{"scan", kScan, SchemeId::WarpedDmr, false},
        SoundnessCase{"scan_recovery", kScan, SchemeId::WarpedDmr, true},
        // The window-closed exit applies to every scheme.
        SoundnessCase{"matrixmul_rnaive", kMatrixMul, SchemeId::RNaive,
                      false},
        SoundnessCase{"sha_replay_compare", kSha,
                      SchemeId::ReplayCompare, false}),
    [](const ::testing::TestParamInfo<SoundnessCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
