#include "fault/campaign_engine.hh"

#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "sim/run_pool.hh"
#include "stats/accumulator.hh"

namespace warped {
namespace fault {

namespace {

/** Stable lower-case slug for metric keys ("transient", "stuck0",
 *  "stuck1" — matching the CLI spellings). */
const char *
kindSlug(FaultKind k)
{
    switch (k) {
      case FaultKind::TransientBitFlip:
        return "transient";
      case FaultKind::StuckAtZero:
        return "stuck0";
      case FaultKind::StuckAtOne:
        return "stuck1";
    }
    return "?";
}

/** Stable lower-case label for a unit-restriction axis entry. */
std::string
unitLabel(const std::optional<isa::UnitType> &u)
{
    if (!u)
        return "any";
    std::string s = isa::unitTypeName(*u);
    for (auto &c : s)
        c = static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    return s;
}

/** What one injected run contributed, before the ordered fold. */
struct RunRecord
{
    OutcomeClass cls = OutcomeClass::Masked;
    bool activated = false;
    FaultKind kind = FaultKind::TransientBitFlip;
    std::optional<isa::UnitType> unit;
    /** Memory-site run: folds into byMemKind instead of
     *  byKind/byUnit. */
    bool isMemory = false;
    mem::MemFaultKind memKind = mem::MemFaultKind::Bit;
    std::uint64_t latency = 0;
    bool hasLatency = false;
    /** Rollback-replay accounting (all zero with recovery off). */
    std::uint64_t recoveryCycles = 0;
    bool hasRecovery = false;
    std::uint64_t rollbacks = 0;
    std::uint64_t giveUps = 0;
    /** The run tripped a simulator panic twice (hang-DUE). */
    bool aborted = false;
    std::uint64_t runIndex = 0;
    std::uint64_t siteIndex = 0;
    /** Stratum label under stratified sampling; empty when the
     *  campaign samples uniformly. */
    std::string stratumLabel;
};

void
emitCounts(trace::MetricsRegistry &m, const std::string &prefix,
           const OutcomeCounts &c)
{
    if (c.masked)
        m.counter(prefix + ".masked") = c.masked;
    if (c.notActivated)
        m.counter(prefix + ".masked.not_activated") = c.notActivated;
    if (c.detected)
        m.counter(prefix + ".detected") = c.detected;
    if (c.recovered)
        m.counter(prefix + ".recovered") = c.recovered;
    if (c.eccCorrected)
        m.counter(prefix + ".ecc_corrected") = c.eccCorrected;
    if (c.sdc)
        m.counter(prefix + ".sdc") = c.sdc;
    if (c.due)
        m.counter(prefix + ".due") = c.due;
}

void
restoreCounts(const std::map<std::string, std::uint64_t> &kv,
              const std::string &prefix, OutcomeCounts &c)
{
    const auto get = [&](const char *leaf) -> std::uint64_t {
        const auto it = kv.find(prefix + leaf);
        return it == kv.end() ? 0 : it->second;
    };
    c.masked = get(".masked");
    c.notActivated = get(".masked.not_activated");
    c.detected = get(".detected");
    c.recovered = get(".recovered");
    c.eccCorrected = get(".ecc_corrected");
    c.sdc = get(".sdc");
    c.due = get(".due");
}

} // namespace

const char *
outcomeClassName(OutcomeClass c)
{
    switch (c) {
      case OutcomeClass::Masked:
        return "masked";
      case OutcomeClass::Detected:
        return "detected";
      case OutcomeClass::Recovered:
        return "recovered";
      case OutcomeClass::EccCorrected:
        return "ecc_corrected";
      case OutcomeClass::Sdc:
        return "sdc";
      case OutcomeClass::Due:
        return "due";
    }
    return "?";
}

OutcomeClass
classifyOutcome(bool activated, bool detected, bool hung,
                bool output_ok, bool recovered_clean)
{
    if (!activated)
        return OutcomeClass::Masked;
    if (detected)
        // Recovered is a refinement of Detected; SDC stays reachable
        // only from the !detected branch below, so recovery can never
        // turn a would-be-Detected run into a silent corruption.
        return recovered_clean && !hung && output_ok
                   ? OutcomeClass::Recovered
                   : OutcomeClass::Detected;
    if (hung)
        return OutcomeClass::Due;
    if (!output_ok)
        return OutcomeClass::Sdc;
    return OutcomeClass::Masked;
}

OutcomeClass
classifyOutcome(bool activated, bool detected, bool hung,
                bool output_ok)
{
    return classifyOutcome(activated, detected, hung, output_ok,
                           /*recovered_clean=*/false);
}

OutcomeClass
classifyMemOutcome(bool activated, bool ecc_uncorrectable,
                   bool ecc_corrected, bool detected, bool hung,
                   bool output_ok)
{
    if (!activated)
        return OutcomeClass::Masked;
    if (ecc_uncorrectable || hung)
        // The codec's uncorrectable flag is a machine-check class
        // event: the run counts as a DUE even if the corrupt value
        // happened not to reach the output.
        return OutcomeClass::Due;
    if (detected)
        return OutcomeClass::Detected;
    if (!output_ok)
        return OutcomeClass::Sdc;
    if (ecc_corrected)
        return OutcomeClass::EccCorrected;
    return OutcomeClass::Masked;
}

void
OutcomeCounts::add(OutcomeClass c, bool activated)
{
    switch (c) {
      case OutcomeClass::Masked:
        ++masked;
        if (!activated)
            ++notActivated;
        break;
      case OutcomeClass::Detected:
        ++detected;
        break;
      case OutcomeClass::Recovered:
        ++recovered;
        break;
      case OutcomeClass::EccCorrected:
        ++eccCorrected;
        break;
      case OutcomeClass::Sdc:
        ++sdc;
        break;
      case OutcomeClass::Due:
        ++due;
        break;
    }
}

double
OutcomeCounts::coverage() const
{
    const auto t = total();
    return t == 0
               ? 0.0
               : double(detected + recovered + eccCorrected) /
                     double(t);
}

stats::Interval
OutcomeCounts::coverageCi(double z) const
{
    return stats::wilsonInterval(detected + recovered + eccCorrected,
                                 total(), z);
}

double
OutcomeCounts::detectionRate() const
{
    const auto caught = detected + recovered + eccCorrected;
    const auto consequential = caught + sdc + due;
    return consequential == 0
               ? 1.0
               : double(caught) / double(consequential);
}

stats::Interval
OutcomeCounts::detectionCi(double z) const
{
    const auto caught = detected + recovered + eccCorrected;
    return stats::wilsonInterval(caught, caught + sdc + due, z);
}

unsigned
latencyBucket(std::uint64_t cycles)
{
    const unsigned b = std::bit_width(cycles);
    return b < kLatencyBuckets ? b : kLatencyBuckets - 1;
}

double
CampaignReport::meanDetectionLatency() const
{
    return latencyCount ? double(latencySum) / double(latencyCount)
                        : 0.0;
}

double
CampaignReport::meanRecoveryCycles() const
{
    return recoveryCount ? double(recoverySum) / double(recoveryCount)
                         : 0.0;
}

stats::StratifiedEstimator
CampaignReport::stratifiedCoverage() const
{
    std::vector<std::uint64_t> sizes;
    sizes.reserve(stratumSizes.size());
    for (const auto &[label, n] : stratumSizes)
        sizes.push_back(n);
    stats::StratifiedEstimator est(std::move(sizes));
    std::size_t h = 0;
    for (const auto &[label, n] : stratumSizes) {
        const auto it = byStratum.find(label);
        if (it != byStratum.end())
            est.addCounts(h, caught(it->second), it->second.total());
        ++h;
    }
    return est;
}

trace::MetricsRegistry
CampaignReport::toMetrics() const
{
    trace::MetricsRegistry m;
    m.counter("campaign.sampled") = sampled;
    m.counter("campaign.space.size") = spaceSize;
    m.counter("campaign.span") = span;
    emitCounts(m, "campaign.outcome", overall);
    for (const auto &[kind, c] : byKind)
        emitCounts(m, std::string("campaign.kind.") + kindSlug(kind),
                   c);
    for (const auto &[label, c] : byUnit)
        emitCounts(m, "campaign.unit." + label, c);
    for (const auto &[kind, c] : byMemKind)
        emitCounts(m, std::string("campaign.memkind.") +
                          mem::memFaultKindSlug(kind),
                   c);
    // Stratified-sampling surface, gated on strataWindows so uniform
    // campaigns render byte-identically to pre-strata ones. The
    // campaign.strata.* keys are configuration echo (bucket count and
    // stratum populations — NOT additive across shard deltas); the
    // campaign.stratum.<label>.* keys are per-stratum outcome tallies
    // and sum like every other counter.
    if (strataWindows) {
        m.counter("campaign.strata.windows") = strataWindows;
        for (const auto &[label, n] : stratumSizes)
            m.counter("campaign.strata.size." + label) = n;
        for (const auto &[label, c] : byStratum)
            emitCounts(m, "campaign.stratum." + label, c);
    }
    for (unsigned b = 0; b < kLatencyBuckets; ++b) {
        if (const auto n = latencyHist.count(b)) {
            char key[48];
            std::snprintf(key, sizeof key,
                          "campaign.latency.hist.b%02u", b);
            m.counter(key) = n;
        }
    }
    if (latencySum)
        m.counter("campaign.latency.sum") = latencySum;
    if (latencyCount)
        m.counter("campaign.latency.count") = latencyCount;
    if (kernelLengthSum)
        m.counter("campaign.latency.kernel_sum") = kernelLengthSum;

    // Every recovery key is zero-gated (counters) or gated on
    // recoveryEnabled (gauges), so a recovery-off report renders
    // byte-identically to one from a build without recovery.
    for (unsigned b = 0; b < kLatencyBuckets; ++b) {
        if (const auto n = recoveryHist.count(b)) {
            char key[48];
            std::snprintf(key, sizeof key,
                          "campaign.recovery.hist.b%02u", b);
            m.counter(key) = n;
        }
    }
    if (recoverySum)
        m.counter("campaign.recovery.sum") = recoverySum;
    if (recoveryCount)
        m.counter("campaign.recovery.count") = recoveryCount;
    if (rollbacks)
        m.counter("campaign.recovery.rollbacks") = rollbacks;
    if (giveUps)
        m.counter("campaign.recovery.giveups") = giveUps;
    if (abortedRuns)
        m.counter("campaign.aborted_runs") = abortedRuns;

    // Scheme identity, gated the same way: the default backend
    // (Warped-DMR, full protection) emits nothing, so pre-seam
    // reports and post-seam default reports are byte-identical.
    if (scheme.id != protection::SchemeId::WarpedDmr ||
        scheme.protectFraction != 1.0) {
        m.counter("campaign.scheme.id") =
            static_cast<std::uint64_t>(scheme.id);
        m.gauge("campaign.scheme.protect_fraction") =
            scheme.protectFraction;
    }

    const auto cov = overall.coverageCi();
    m.gauge("campaign.coverage") = overall.coverage();
    m.gauge("campaign.coverage.wilson_lo") = cov.lo;
    m.gauge("campaign.coverage.wilson_hi") = cov.hi;
    const auto det = overall.detectionCi();
    m.gauge("campaign.detection_rate") = overall.detectionRate();
    m.gauge("campaign.detection_rate.wilson_lo") = det.lo;
    m.gauge("campaign.detection_rate.wilson_hi") = det.hi;
    const auto t = overall.total();
    m.gauge("campaign.masked_rate") =
        t ? double(overall.masked) / double(t) : 0.0;
    m.gauge("campaign.sdc_rate") =
        t ? double(overall.sdc) / double(t) : 0.0;
    m.gauge("campaign.due_rate") =
        t ? double(overall.due) / double(t) : 0.0;
    m.gauge("campaign.latency.mean") = meanDetectionLatency();
    if (recoveryEnabled) {
        // Recovered fraction of the alarmed (detected ∪ recovered)
        // runs: the paper-style "how many detections become full
        // repairs" number, with its Wilson interval.
        const auto alarmed = overall.detected + overall.recovered;
        const auto rc =
            stats::wilsonInterval(overall.recovered, alarmed);
        m.gauge("campaign.recovered_fraction") =
            alarmed ? double(overall.recovered) / double(alarmed)
                    : 0.0;
        m.gauge("campaign.recovered_fraction.wilson_lo") = rc.lo;
        m.gauge("campaign.recovered_fraction.wilson_hi") = rc.hi;
        m.gauge("campaign.recovery.mean") = meanRecoveryCycles();
    }
    for (const auto &[kind, c] : byKind)
        m.gauge(std::string("campaign.kind.") + kindSlug(kind) +
                ".coverage") = c.coverage();

    // The stratified coverage estimator (Cochran): per-stratum
    // proportions combined with population weights, plus per-stratum
    // Wilson intervals. Same gate as the stratum counters above.
    if (strataWindows && !stratumSizes.empty()) {
        const auto est = stratifiedCoverage();
        const auto ci = est.interval();
        m.gauge("campaign.coverage.stratified") = est.estimate();
        m.gauge("campaign.coverage.stratified_lo") = ci.lo;
        m.gauge("campaign.coverage.stratified_hi") = ci.hi;
        for (const auto &[label, c] : byStratum) {
            const auto w = c.coverageCi();
            const std::string p = "campaign.stratum." + label;
            m.gauge(p + ".coverage") = c.coverage();
            m.gauge(p + ".coverage.wilson_lo") = w.lo;
            m.gauge(p + ".coverage.wilson_hi") = w.hi;
        }
    }

    // The memory-side protection surface, gated on memEnabled so
    // execution-only reports render byte-identically to pre-memory
    // builds: how much the ECC absorbed, and — the question the
    // campaign exists to answer — how much *escaped* both ECC and
    // DMR (memory-data faults are invisible to redundant execution,
    // so without ECC the escaped fraction is the SDC+DUE mass).
    if (memEnabled) {
        const auto t = overall.total();
        const auto escaped = overall.sdc + overall.due;
        const auto esc = stats::wilsonInterval(escaped, t);
        m.gauge("campaign.escaped_rate") =
            t ? double(escaped) / double(t) : 0.0;
        m.gauge("campaign.escaped_rate.wilson_lo") = esc.lo;
        m.gauge("campaign.escaped_rate.wilson_hi") = esc.hi;
        const auto ecc =
            stats::wilsonInterval(overall.eccCorrected, t);
        m.gauge("campaign.ecc.corrected_rate") =
            t ? double(overall.eccCorrected) / double(t) : 0.0;
        m.gauge("campaign.ecc.corrected_rate.wilson_lo") = ecc.lo;
        m.gauge("campaign.ecc.corrected_rate.wilson_hi") = ecc.hi;
        for (const auto &[kind, c] : byMemKind) {
            const std::string p = std::string("campaign.memkind.") +
                                  mem::memFaultKindSlug(kind);
            const auto kt = c.total();
            const auto kesc = stats::wilsonInterval(c.sdc + c.due, kt);
            m.gauge(p + ".escaped_rate") =
                kt ? double(c.sdc + c.due) / double(kt) : 0.0;
            m.gauge(p + ".escaped_rate.wilson_lo") = kesc.lo;
            m.gauge(p + ".escaped_rate.wilson_hi") = kesc.hi;
            const auto kecc = stats::wilsonInterval(c.eccCorrected, kt);
            m.gauge(p + ".corrected_rate") =
                kt ? double(c.eccCorrected) / double(kt) : 0.0;
            m.gauge(p + ".corrected_rate.wilson_lo") = kecc.lo;
            m.gauge(p + ".corrected_rate.wilson_hi") = kecc.hi;
        }
    }
    return m;
}

std::string
CampaignReport::toJson() const
{
    return toMetrics().toJson();
}

CampaignEngine::CampaignEngine(WorkloadFactory factory,
                               EngineConfig cfg)
    : factory_(std::move(factory)), cfg_(std::move(cfg))
{
}

namespace {

/** One injected experiment (thread-safe: everything is run-local).
 *  With @p strat set the site is drawn within the run's stratum;
 *  either way the draw is a pure function of (seed, run_index). */
RunRecord
runOne(std::uint64_t run_index, const FaultSiteSpace &space,
       const StratifiedSpace *strat, Cycle span,
       const WorkloadFactory &factory, const EngineConfig &cfg)
{
    const auto siteIdx =
        strat ? strat->siteForRun(cfg.seed, run_index)
              : space.sampleIndex(cfg.seed, run_index);
    const FaultSpec spec = space.site(siteIdx);

    RunRecord rec;
    rec.kind = spec.kind;
    rec.unit = spec.unit;
    rec.runIndex = run_index;
    rec.siteIndex = siteIdx;
    if (strat)
        rec.stratumLabel =
            strat->stratum(strat->stratumOfRun(run_index)).label;

    if (spec.isMemory) {
        // Memory-cell upset: no execution-side hook; the fault lives
        // in the global memory's fault plane and every read of the
        // upset word is filtered through the configured ECC codec.
        // Same twice-then-hang-DUE retry contract as below.
        rec.isMemory = true;
        rec.memKind = spec.memKind;
        for (unsigned attempt = 0; attempt < 2; ++attempt) {
            auto w = factory();
            try {
                gpu::Gpu g(cfg.gpu, cfg.dmr, /*seed=*/1, nullptr,
                           cfg.recovery, cfg.scheme);
                w->setup(g);
                mem::MemFaultPlane plane(cfg.gpu.eccKind);
                plane.inject(spec.memAddr, spec.memKind, spec.bit,
                             spec.cycleBegin);
                g.mem().attachFaultPlane(&plane);
                const Cycle watchdog = span * 20 + 100000;
                const auto r = g.launch(w->program(), w->gridBlocks(),
                                        w->blockThreads(), watchdog);
                // Host readback goes through the plane too, so an
                // upset that survives in an output word is caught by
                // verify() whether or not the kernel ever loaded it.
                bool outputOk = true;
                if (!r.hung)
                    outputOk = w->verify(g);
                g.mem().attachFaultPlane(nullptr);
                rec.activated = plane.consumedReads() > 0;
                rec.cls = classifyMemOutcome(
                    rec.activated, plane.uncorrectable() > 0,
                    plane.corrected() > 0, r.dmr.errorsDetected > 0,
                    r.hung, outputOk);
                return rec;
            } catch (const std::exception &e) {
                if (attempt == 0)
                    continue;
                warped_warn("campaign: memory run ", run_index,
                            " (site ", siteIdx, ", seed ", cfg.seed,
                            ") aborted twice: ", e.what(),
                            "; classifying as hang-DUE");
                rec.activated = true;
                rec.cls = OutcomeClass::Due;
                rec.aborted = true;
            }
        }
        return rec;
    }

    // Early exits (docs/FAULT_MODEL.md): stop simulating once the
    // run's class can no longer change. Window-closed: nothing has
    // activated and no window is open any more, so the run is the
    // golden run from here on — Masked, not activated, for every
    // scheme. First-detection: with recovery off a comparator alarm
    // already makes the run Detected, and the latency inputs
    // (errorLog.front(), firstActivationCycle()) are final.
    const bool firstDetectionExit =
        !cfg.recovery.enabled &&
        cfg.scheme.id == protection::SchemeId::WarpedDmr;

    // An injected fault (or, with recovery on, a rollback livelock)
    // can drive the simulator into one of its own sanity panics —
    // warped_panic throws. That must cost the campaign one run, not
    // the whole campaign: retry the same site once with identical
    // seeding (everything below is a pure function of run_index), and
    // if it throws again classify the site as a hang-DUE.
    for (unsigned attempt = 0; attempt < 2; ++attempt) {
        FaultInjector injector;
        injector.add(spec);
        const gpu::StopPredicate stop =
            [&injector, firstDetectionExit](Cycle cycle,
                                            const gpu::LaunchLoop &loop) {
                if (injector.activations() == 0)
                    return injector.windowsClosedBy(cycle);
                return firstDetectionExit && loop.detections() > 0;
            };
        auto w = factory();
        try {
            gpu::Gpu g(cfg.gpu, cfg.dmr, /*seed=*/1, &injector,
                       cfg.recovery, cfg.scheme);
            w->setup(g);
            // Watchdog: a fault can corrupt a loop counter and hang
            // the kernel; give it a generous multiple of the
            // fault-free span.
            const Cycle watchdog = span * 20 + 100000;
            const auto r = g.launch(w->program(), w->gridBlocks(),
                                    w->blockThreads(), watchdog, stop);

            rec.activated = injector.activations() > 0;
            const bool detected = r.dmr.errorsDetected > 0;
            const bool recoveredClean = cfg.recovery.enabled &&
                                        detected &&
                                        r.recovery.giveUps == 0;
            // The golden-reference comparison: Workload::verify
            // checks the output buffers against the CPU reference,
            // which the fault-free golden run was itself validated
            // against (runVerified below). A detected run's output
            // only matters when rollback-replay claims a clean
            // repair, so verify() is also called for those.
            bool outputOk = true;
            if (rec.activated && !r.hung &&
                (!detected || recoveredClean))
                outputOk = w->verify(g);
            rec.cls = classifyOutcome(rec.activated, detected,
                                      r.hung, outputOk,
                                      recoveredClean);
            if ((rec.cls == OutcomeClass::Detected ||
                 rec.cls == OutcomeClass::Recovered) &&
                !r.dmr.errorLog.empty()) {
                const Cycle det = r.dmr.errorLog.front().cycle;
                const Cycle act = injector.firstActivationCycle();
                rec.latency = det >= act ? det - act : 0;
                rec.hasLatency = true;
            }
            rec.rollbacks = r.recovery.rollbacks;
            rec.giveUps = r.recovery.giveUps;
            if (rec.cls == OutcomeClass::Recovered) {
                rec.recoveryCycles = r.recovery.recoveryCycles;
                rec.hasRecovery = true;
            }
            return rec;
        } catch (const std::exception &e) {
            if (attempt == 0)
                continue;
            warped_warn("campaign: run ", run_index, " (site ",
                        siteIdx, ", seed ", cfg.seed,
                        ") aborted twice: ", e.what(),
                        "; classifying as hang-DUE");
            rec.activated = true;
            rec.cls = OutcomeClass::Due;
            rec.hasLatency = false;
            rec.aborted = true;
        }
    }
    return rec;
}

void
fold(CampaignReport &rep, const RunRecord &rec)
{
    rep.overall.add(rec.cls, rec.activated);
    if (rec.isMemory) {
        rep.byMemKind[rec.memKind].add(rec.cls, rec.activated);
    } else {
        rep.byKind[rec.kind].add(rec.cls, rec.activated);
        rep.byUnit[unitLabel(rec.unit)].add(rec.cls, rec.activated);
    }
    if (!rec.stratumLabel.empty())
        rep.byStratum[rec.stratumLabel].add(rec.cls, rec.activated);
    if (rec.hasLatency) {
        rep.latencyHist.add(latencyBucket(rec.latency));
        rep.latencySum += rec.latency;
        ++rep.latencyCount;
        rep.kernelLengthSum += rep.span;
    }
    if (rec.hasRecovery) {
        rep.recoveryHist.add(latencyBucket(rec.recoveryCycles));
        rep.recoverySum += rec.recoveryCycles;
        ++rep.recoveryCount;
    }
    rep.rollbacks += rec.rollbacks;
    rep.giveUps += rec.giveUps;
    if (rec.aborted) {
        ++rep.abortedRuns;
        if (rep.abortLog.size() < CampaignReport::kMaxAbortLog)
            rep.abortLog.push_back({rec.runIndex, rec.siteIndex});
    }
    ++rep.sampled;
}

/** Configuration fingerprint a checkpoint must match to be resumed:
 *  workload label, seed, planned sites, the site space (which folds
 *  in the golden span), and the protection/machine knobs. */
std::uint64_t
configSignature(const EngineConfig &cfg, const FaultSiteSpace &space,
                std::uint64_t planned)
{
    std::uint64_t h = splitmix64(0xca3f5a17u);
    const auto mix = [&h](std::uint64_t v) {
        h = splitmix64(h ^ v);
    };
    for (const char c : cfg.workload)
        mix(static_cast<unsigned char>(c));
    mix(cfg.seed);
    mix(planned);
    mix(space.signature());
    mix(cfg.gpu.numSms);
    mix(cfg.gpu.warpSize);
    mix(cfg.dmr.enabled);
    mix(cfg.dmr.intraWarp);
    mix(cfg.dmr.interWarp);
    mix(cfg.dmr.laneShuffle);
    mix(cfg.dmr.replayQSize);
    mix(static_cast<std::uint64_t>(cfg.dmr.mapping));
    mix(cfg.dmr.samplingEpoch);
    mix(cfg.dmr.samplingActive);
    mix(cfg.dmr.arbitrateErrors);
    // Mixed only when enabled, so pre-recovery checkpoints keep
    // resuming under the default (off) configuration.
    if (cfg.recovery.enabled) {
        mix(0x5ec0);
        mix(cfg.recovery.retryBudget);
        mix(cfg.recovery.ringCapacity);
        mix(cfg.recovery.rollbackPenalty);
    }
    // Likewise mixed only for non-default backends, so pre-seam
    // checkpoints keep resuming under the default (Warped-DMR).
    if (cfg.scheme.id != protection::SchemeId::WarpedDmr ||
        cfg.scheme.protectFraction != 1.0) {
        mix(0x5c3e);
        mix(static_cast<std::uint64_t>(cfg.scheme.id));
        mix(static_cast<std::uint64_t>(cfg.scheme.protectFraction *
                                       1e9));
    }
    // Memory model / ECC / fault-domain knobs, mixed only when any
    // is non-default so pre-memory checkpoints keep resuming. (The
    // site space's own memory axes are already in space.signature();
    // this covers the machine knobs that change run *outcomes*.)
    if (cfg.gpu.memModel != arch::MemModel::Flat ||
        cfg.gpu.eccKind != arch::EccKind::None ||
        cfg.space.memEnabled || !cfg.space.execEnabled) {
        mix(0x3ecc);
        mix(static_cast<std::uint64_t>(cfg.gpu.memModel));
        mix(static_cast<std::uint64_t>(cfg.gpu.eccKind));
        mix(cfg.gpu.memBanks);
        mix(cfg.gpu.memRowBytes);
        mix(cfg.gpu.memRowMissPenalty);
        mix(cfg.space.execEnabled ? 1 : 0);
        mix(cfg.space.memEnabled ? 1 : 0);
    }
    // Stratified sampling changes which site run i draws, so a
    // stratified checkpoint must never resume a uniform campaign (or
    // vice versa). Mixed only when on, preserving every pre-strata
    // signature.
    if (cfg.strataWindows) {
        mix(0x57a7);
        mix(cfg.strataWindows);
    }
    return h;
}

void
writeCheckpoint(const std::string &path, const CampaignReport &rep,
                std::uint64_t signature)
{
    // Counters only (integers round-trip exactly; every gauge is
    // derivable from them), plus the header the loader validates.
    // Version 2 adds a payload fingerprint so a torn or damaged file
    // is *detected* on resume instead of silently restoring a prefix
    // of itself.
    auto m = rep.toMetrics();
    trace::MetricsRegistry state;
    state.counter("campaign.checkpoint.version") = 2;
    state.counter("campaign.checkpoint.signature") = signature;
    state.counter("campaign.checkpoint.fingerprint") =
        trace::countersFingerprint(m.counters());
    for (const auto &[k, v] : m.counters())
        state.counter(k) = v;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp);
        if (!f) {
            warped_warn("campaign: cannot write checkpoint ", tmp);
            return;
        }
        f << state.toJson();
    }
    // Crash-atomic swap: rename(2) replaces the destination in one
    // step, so every observable state of `path` is either the old
    // complete checkpoint or the new complete one. (An earlier
    // version removed the destination first — a crash in that window
    // left no checkpoint at all.)
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        warped_warn("campaign: cannot move checkpoint into ", path);
}

/** Load @p path into @p rep; false (and an untouched report) when
 *  the file is absent or is a stale checkpoint (version or signature
 *  mismatch — warned and ignored). Throws CheckpointError when the
 *  file exists but is torn or fails its integrity fingerprint. */
bool
loadCheckpoint(const std::string &path, std::uint64_t signature,
               CampaignReport &rep)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    if (!trace::flatJsonComplete(text))
        throw CheckpointError(
            "checkpoint " + path +
            " is truncated (no closing '}'): the previous writer "
            "crashed mid-write; delete the file to restart from zero");
    auto kv = trace::parseFlatCounters(text);

    const auto get = [&](const char *key) -> std::uint64_t {
        const auto it = kv.find(key);
        return it == kv.end() ? 0 : it->second;
    };
    if (get("campaign.checkpoint.version") != 2 ||
        get("campaign.checkpoint.signature") != signature) {
        warped_warn("campaign: checkpoint ", path,
                    " does not match this configuration; ignoring");
        return false;
    }
    const auto fingerprint = get("campaign.checkpoint.fingerprint");
    kv.erase("campaign.checkpoint.version");
    kv.erase("campaign.checkpoint.signature");
    kv.erase("campaign.checkpoint.fingerprint");
    if (fingerprint != trace::countersFingerprint(kv))
        throw CheckpointError(
            "checkpoint " + path +
            " fails its integrity fingerprint: the file is damaged; "
            "delete it to restart from zero");

    restoreReportCounters(kv, rep);
    return true;
}

} // namespace

void
restoreReportCounters(const std::map<std::string, std::uint64_t> &kv,
                      CampaignReport &rep)
{
    const auto get = [&](const std::string &key) -> std::uint64_t {
        const auto it = kv.find(key);
        return it == kv.end() ? 0 : it->second;
    };
    const auto getInto = [&](const std::string &key,
                             std::uint64_t &out) {
        const auto it = kv.find(key);
        if (it != kv.end())
            out = it->second;
    };
    getInto("campaign.sampled", rep.sampled);
    getInto("campaign.space.size", rep.spaceSize);
    getInto("campaign.span", rep.span);
    restoreCounts(kv, "campaign.outcome", rep.overall);

    // Breakdown labels are discovered from the key set itself, so
    // this restorer needs no engine configuration (the shard
    // aggregator runs it over summed delta counters).
    static constexpr std::pair<const char *, FaultKind> kKinds[] = {
        {"transient", FaultKind::TransientBitFlip},
        {"stuck0", FaultKind::StuckAtZero},
        {"stuck1", FaultKind::StuckAtOne},
    };
    for (const auto &[slug, kind] : kKinds) {
        OutcomeCounts c;
        restoreCounts(kv, std::string("campaign.kind.") + slug, c);
        if (c.total())
            rep.byKind[kind] = c;
    }
    static constexpr std::pair<const char *, mem::MemFaultKind>
        kMemKinds[] = {
            {"membit", mem::MemFaultKind::Bit},
            {"memdouble", mem::MemFaultKind::DoubleBit},
            {"memchip", mem::MemFaultKind::ChipBurst},
        };
    for (const auto &[slug, kind] : kMemKinds) {
        OutcomeCounts c;
        restoreCounts(kv, std::string("campaign.memkind.") + slug, c);
        if (c.total())
            rep.byMemKind[kind] = c;
    }
    // Unit labels carry no '.', so the label is the segment right
    // after the prefix.
    {
        const std::string prefix = "campaign.unit.";
        for (auto it = kv.lower_bound(prefix);
             it != kv.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0;
             ++it) {
            const auto dot = it->first.find('.', prefix.size());
            if (dot == std::string::npos)
                continue;
            const std::string label =
                it->first.substr(prefix.size(), dot - prefix.size());
            if (rep.byUnit.count(label))
                continue;
            OutcomeCounts c;
            restoreCounts(kv, prefix + label, c);
            if (c.total())
                rep.byUnit[label] = c;
        }
    }
    // Stratum labels DO contain dots ("any.w03", "sp.perm"), so they
    // are recovered from the campaign.strata.size.<label> echo keys
    // (label = the whole remainder) — and, because the shard
    // aggregator deliberately drops echo keys from its counter sum,
    // also from the labels the caller's skeleton already carries.
    {
        const std::string prefix = "campaign.strata.size.";
        for (auto it = kv.lower_bound(prefix);
             it != kv.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0;
             ++it)
            rep.stratumSizes[it->first.substr(prefix.size())] =
                it->second;
        for (const auto &[label, n] : rep.stratumSizes) {
            OutcomeCounts c;
            restoreCounts(kv, "campaign.stratum." + label, c);
            if (c.total())
                rep.byStratum[label] = c;
        }
    }
    if (const auto w = get("campaign.strata.windows"))
        rep.strataWindows = static_cast<unsigned>(w);

    for (unsigned b = 0; b < kLatencyBuckets; ++b) {
        char key[48];
        std::snprintf(key, sizeof key, "campaign.latency.hist.b%02u",
                      b);
        if (const auto n = get(key))
            rep.latencyHist.add(b, n);
    }
    rep.latencySum = get("campaign.latency.sum");
    rep.latencyCount = get("campaign.latency.count");
    rep.kernelLengthSum = get("campaign.latency.kernel_sum");
    for (unsigned b = 0; b < kLatencyBuckets; ++b) {
        char key[48];
        std::snprintf(key, sizeof key, "campaign.recovery.hist.b%02u",
                      b);
        if (const auto n = get(key))
            rep.recoveryHist.add(b, n);
    }
    rep.recoverySum = get("campaign.recovery.sum");
    rep.recoveryCount = get("campaign.recovery.count");
    rep.rollbacks = get("campaign.recovery.rollbacks");
    rep.giveUps = get("campaign.recovery.giveups");
    rep.abortedRuns = get("campaign.aborted_runs");
}

void
CampaignEngine::prepare()
{
    if (prepared_)
        return;

    // 1. Golden reference run: validates the fault-free machine
    //    against the CPU reference and yields the cycle span that
    //    anchors transient placement, the watchdog budget, and the
    //    software-scheme latency baseline. Deliberately run with
    //    recovery OFF even when the campaign enables it: the site
    //    space is derived from this span, so recovery-on and
    //    recovery-off campaigns sample the *same* sites and their
    //    Detected/Recovered splits are directly comparable.
    Cycle span;
    std::uint64_t footprint_words = 0;
    {
        auto w = factory_();
        gpu::Gpu g(cfg_.gpu, cfg_.dmr, /*seed=*/1, nullptr, {},
                   cfg_.scheme);
        span = workloads::runVerified(*w, g).cycles;
        // Device footprint the memory-cell axes cover: every word
        // the workload's allocator handed out (inputs, outputs and
        // scratch — dead words are legitimate Masked sites).
        footprint_words = g.allocator().used() / 4;
    }

    // 2. Resolve the site space and the sample size.
    SiteSpaceConfig sc = cfg_.space;
    sc.numSms = cfg_.gpu.numSms;
    sc.warpSize = cfg_.gpu.warpSize;
    if (sc.memEnabled) {
        if (sc.memWords == 0)
            sc.memWords = footprint_words;
        // Annotate memory sites with the machine's DRAM geometry.
        sc.memBanks = std::max(1u, cfg_.gpu.memBanks);
        sc.memRowWords = std::max(1u, cfg_.gpu.memRowBytes / 4);
    }
    span_ = span;
    space_.emplace(sc, span);
    planned_ = cfg_.sites
                   ? cfg_.sites
                   : stats::sampleSizeForMargin(cfg_.marginOfError,
                                                stats::kZ95, 0.5,
                                                space_->size());
    if (cfg_.strataWindows) {
        strat_.emplace(*space_, cfg_.strataWindows);
        strat_->allocate(planned_);
    }
    signature_ = configSignature(cfg_, *space_, planned_);
    prepared_ = true;
}

CampaignReport
CampaignEngine::skeleton()
{
    prepare();
    CampaignReport rep;
    rep.spaceSize = space_->size();
    rep.span = span_;
    rep.recoveryEnabled = cfg_.recovery.enabled;
    rep.scheme = cfg_.scheme;
    rep.memEnabled = space_->config().memEnabled;
    if (strat_) {
        rep.strataWindows = strat_->windowBuckets();
        for (std::size_t h = 0; h < strat_->strata(); ++h)
            rep.stratumSizes[strat_->stratum(h).label] =
                strat_->stratum(h).size;
    }
    return rep;
}

CampaignReport
CampaignEngine::runRange(std::uint64_t base, std::uint64_t count)
{
    CampaignReport rep = skeleton();
    if (base + count > planned_ || base + count < base)
        warped_fatal("campaign: shard range [", base, ", ",
                     base + count, ") exceeds the ", planned_,
                     " planned runs");
    sim::RunPool pool(cfg_.jobs);
    std::vector<RunRecord> records(static_cast<std::size_t>(count));
    pool.parallelFor(static_cast<std::size_t>(count),
                     [&](std::size_t i) {
                         records[i] = runOne(
                             base + i, *space_,
                             strat_ ? &*strat_ : nullptr, span_,
                             factory_, cfg_);
                     });
    for (const auto &rec : records)
        fold(rep, rec);
    return rep;
}

CampaignReport
CampaignEngine::run()
{
    CampaignReport rep = skeleton();

    // 3. Resume from a matching checkpoint when one exists. A torn
    //    or damaged checkpoint throws CheckpointError — see
    //    loadCheckpoint.
    if (!cfg_.checkpointPath.empty())
        loadCheckpoint(cfg_.checkpointPath, signature_, rep);
    if (rep.sampled > planned_)
        warped_fatal("campaign: checkpoint has ", rep.sampled,
                     " runs but only ", planned_, " are planned");

    // 4. Chunked fan-out: each chunk runs on the pool, folds in
    //    submission-index order (so the accumulated state is
    //    worker-count-independent), then checkpoints. Nonsensical
    //    chunk sizes are clamped (zero would never checkpoint inside
    //    the loop; larger-than-campaign would only checkpoint at the
    //    very end — both defeat the point of checkpointing).
    sim::RunPool pool(cfg_.jobs);
    std::uint64_t chunkSize = cfg_.checkpointEvery;
    if (chunkSize == 0) {
        warped_warn("campaign: checkpointEvery 0 would never "
                    "checkpoint; clamping to 1000");
        chunkSize = 1000;
    }
    if (planned_ && chunkSize > planned_) {
        warped_warn("campaign: checkpointEvery ", chunkSize,
                    " exceeds the ", planned_,
                    " planned runs; clamping");
        chunkSize = planned_;
    }
    std::vector<RunRecord> records;
    std::uint64_t chunks = 0;
    while (rep.sampled < planned_) {
        const auto base = rep.sampled;
        const auto n = std::min(chunkSize, planned_ - base);
        records.assign(static_cast<std::size_t>(n), RunRecord{});
        pool.parallelFor(static_cast<std::size_t>(n),
                         [&](std::size_t i) {
                             records[i] = runOne(
                                 base + i, *space_,
                                 strat_ ? &*strat_ : nullptr, span_,
                                 factory_, cfg_);
                         });
        for (const auto &rec : records)
            fold(rep, rec);
        if (!cfg_.checkpointPath.empty())
            writeCheckpoint(cfg_.checkpointPath, rep, signature_);
        if (cfg_.stopAfterChunks && ++chunks >= cfg_.stopAfterChunks)
            break;
    }
    return rep;
}

} // namespace fault
} // namespace warped
