#include "fault/campaign_engine.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/shard.hh"
#include "gpu/gpu.hh"
#include "mem/mem_fault.hh"
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
    /** The run tripped a simulator panic (hang-DUE). */
    bool aborted = false;
    std::uint64_t runIndex = 0;
    std::uint64_t siteIndex = 0;
    /** Stratum label under stratified sampling; empty when the
     *  campaign samples uniformly. */
    std::string stratumLabel;
};

using Counters = std::map<std::string, std::uint64_t>;

/** Set @p key to @p n unless n is zero: absent counts read as zero. */
void
putNonZero(Counters &m, const std::string &key, std::uint64_t n)
{
    if (n)
        m[key] = n;
}

void
emitCounts(Counters &m, const std::string &prefix, const OutcomeCounts &c)
{
    putNonZero(m, prefix + ".masked", c.masked);
    putNonZero(m, prefix + ".masked.not_activated", c.notActivated);
    putNonZero(m, prefix + ".detected", c.detected);
    putNonZero(m, prefix + ".recovered", c.recovered);
    putNonZero(m, prefix + ".ecc_corrected", c.eccCorrected);
    putNonZero(m, prefix + ".sdc", c.sdc);
    putNonZero(m, prefix + ".due", c.due);
}

/** Key of bucket @p b of a log2 histogram: "<prefix>.bNN". */
std::string
histKey(const char *prefix, unsigned b)
{
    char key[48];
    std::snprintf(key, sizeof key, "%s.b%02u", prefix, b);
    return key;
}

void
emitHist(Counters &m, const char *prefix, const stats::Histogram &h)
{
    for (unsigned b = 0; b < kLatencyBuckets; ++b)
        putNonZero(m, histKey(prefix, b), h.count(b));
}

/** The gauge triple "<key>", "<key>.wilson_lo", "<key>.wilson_hi":
 *  the proportion @p k / @p n with its Wilson interval. */
void
wilsonGauges(trace::MetricsRegistry &m, const std::string &key,
             std::uint64_t k, std::uint64_t n)
{
    const auto ci = stats::wilsonInterval(k, n);
    m.gauge(key) = n ? double(k) / double(n) : 0.0;
    m.gauge(key + ".wilson_lo") = ci.lo;
    m.gauge(key + ".wilson_hi") = ci.hi;
}

void
restoreCounts(const Counters &kv, const std::string &prefix,
              OutcomeCounts &c)
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

void
restoreHist(const Counters &kv, const char *prefix, stats::Histogram &h)
{
    for (unsigned b = 0; b < kLatencyBuckets; ++b)
        if (const auto it = kv.find(histKey(prefix, b)); it != kv.end())
            h.add(b, it->second);
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

Counters
CampaignReport::counters() const
{
    Counters m;
    m["campaign.sampled"] = sampled;
    emitCounts(m, "campaign.outcome", overall);
    for (const auto &[kind, c] : byKind)
        emitCounts(m, std::string("campaign.kind.") + kindSlug(kind), c);
    for (const auto &[label, c] : byUnit)
        emitCounts(m, "campaign.unit." + label, c);
    for (const auto &[kind, c] : byMemKind)
        emitCounts(m, std::string("campaign.memkind.") +
                          mem::memFaultKindSlug(kind),
                   c);
    for (const auto &[label, c] : byStratum)
        emitCounts(m, "campaign.stratum." + label, c);
    emitHist(m, "campaign.latency.hist", latencyHist);
    putNonZero(m, "campaign.latency.sum", latencySum);
    putNonZero(m, "campaign.latency.count", latencyCount);
    putNonZero(m, "campaign.latency.kernel_sum", kernelLengthSum);
    emitHist(m, "campaign.recovery.hist", recoveryHist);
    putNonZero(m, "campaign.recovery.sum", recoverySum);
    putNonZero(m, "campaign.recovery.count", recoveryCount);
    putNonZero(m, "campaign.recovery.rollbacks", rollbacks);
    putNonZero(m, "campaign.recovery.giveups", giveUps);
    putNonZero(m, "campaign.aborted_runs", abortedRuns);
    return m;
}

trace::MetricsRegistry
CampaignReport::toMetrics() const
{
    trace::MetricsRegistry m;
    // Configuration echo, from the skeleton fields.
    m.counter("campaign.schema") = kSchema;
    m.counter("campaign.space.size") = spaceSize;
    m.counter("campaign.span") = span;
    m.counter("campaign.scheme.id") = static_cast<std::uint64_t>(scheme.id);
    m.gauge("campaign.scheme.protect_fraction") = scheme.protectFraction;
    for (const auto &[label, n] : stratumSizes)
        m.counter("campaign.strata.size." + label) = n;

    for (const auto &[k, v] : counters())
        m.counter(k) = v;

    // Gauges derived from the counts.
    const auto &o = overall;
    const auto t = o.total();
    const auto cov = o.coverageCi();
    m.gauge("campaign.coverage") = o.coverage();
    m.gauge("campaign.coverage.wilson_lo") = cov.lo;
    m.gauge("campaign.coverage.wilson_hi") = cov.hi;
    const auto det = o.detectionCi();
    m.gauge("campaign.detection_rate") = o.detectionRate();
    m.gauge("campaign.detection_rate.wilson_lo") = det.lo;
    m.gauge("campaign.detection_rate.wilson_hi") = det.hi;
    m.gauge("campaign.masked_rate") = t ? double(o.masked) / double(t) : 0.0;
    m.gauge("campaign.sdc_rate") = t ? double(o.sdc) / double(t) : 0.0;
    m.gauge("campaign.due_rate") = t ? double(o.due) / double(t) : 0.0;
    m.gauge("campaign.latency.mean") = meanDetectionLatency();
    // Recovered fraction of the alarmed (detected ∪ recovered) runs:
    // the paper-style "how many detections become full repairs"
    // number.
    wilsonGauges(m, "campaign.recovered_fraction", o.recovered,
                 o.detected + o.recovered);
    m.gauge("campaign.recovery.mean") = meanRecoveryCycles();
    for (const auto &[kind, c] : byKind)
        m.gauge(std::string("campaign.kind.") + kindSlug(kind) +
                ".coverage") = c.coverage();

    // The stratified coverage estimator (Cochran): per-stratum
    // proportions combined with population weights, plus per-stratum
    // Wilson intervals.
    if (!stratumSizes.empty()) {
        const auto est = stratifiedCoverage();
        const auto ci = est.interval();
        m.gauge("campaign.coverage.stratified") = est.estimate();
        m.gauge("campaign.coverage.stratified_lo") = ci.lo;
        m.gauge("campaign.coverage.stratified_hi") = ci.hi;
        for (const auto &[label, c] : byStratum)
            wilsonGauges(m, "campaign.stratum." + label + ".coverage",
                         caught(c), c.total());
    }

    // The memory-side protection surface: how much the ECC absorbed,
    // and — the question memory campaigns exist to answer — how much
    // *escaped* both ECC and DMR (memory-data faults are invisible to
    // redundant execution, so without ECC the escaped fraction is the
    // SDC+DUE mass).
    wilsonGauges(m, "campaign.escaped_rate", o.sdc + o.due, t);
    wilsonGauges(m, "campaign.ecc.corrected_rate", o.eccCorrected, t);
    for (const auto &[kind, c] : byMemKind) {
        const std::string p = std::string("campaign.memkind.") +
                              mem::memFaultKindSlug(kind);
        wilsonGauges(m, p + ".escaped_rate", c.sdc + c.due, c.total());
        wilsonGauges(m, p + ".corrected_rate", c.eccCorrected, c.total());
    }
    return m;
}

std::string
CampaignReport::toJson() const
{
    return toMetrics().toJson();
}

bool
settledByOracle(const gpu::Ladder &ladder, const FaultSpec &spec)
{
    return !spec.isMemory &&
           ladder.quiet(spec.sm, spec.cycleBegin, spec.cycleEnd);
}

MemSettlement
settledByAccessLog(const mem::MemAccessLog &log, const FaultSpec &spec,
                   arch::EccKind ecc)
{
    if (!spec.isMemory || !log.covers(spec.memAddr))
        return MemSettlement::Simulate;
    switch (log.firstAt(spec.memAddr, spec.cycleBegin)) {
      case mem::MemAccess::None:
      case mem::MemAccess::Write:
        return MemSettlement::NotRead;
      case mem::MemAccess::Read:
        break;
    }
    switch (mem::MemFaultPlane::readStatus(ecc, spec.memKind, spec.bit)) {
      case mem::CodecStatus::Corrected:
        return MemSettlement::Corrected;
      case mem::CodecStatus::Detected:
        return MemSettlement::Uncorrectable;
      case mem::CodecStatus::Ok:
        break;
    }
    return MemSettlement::Simulate;
}

CampaignEngine::CampaignEngine(WorkloadFactory factory,
                               EngineConfig cfg)
    : factory_(std::move(factory)), cfg_(std::move(cfg))
{
}

namespace {

/**
 * Draw run @p run_index's site into @p spec and fill in @p rec. With
 * @p strat set the site is drawn within the run's stratum; either way
 * the draw is a pure function of (seed, run_index). Returns true when
 * the run still needs simulating, false when a golden log settled it:
 * an execution site whose window the golden pass never asked the
 * hook about (settledByOracle), or a memory site @p access_log
 * settles (settledByAccessLog). @p access_log is null only when the
 * space has no memory sites.
 */
bool
drawRun(std::uint64_t run_index, const FaultSiteSpace &space,
        const StratifiedSpace *strat, const EngineConfig &cfg,
        const gpu::Ladder &ladder, const mem::MemAccessLog *access_log,
        RunRecord &rec, FaultSpec &spec)
{
    const auto siteIdx =
        strat ? strat->siteForRun(cfg.seed, run_index)
              : space.sampleIndex(cfg.seed, run_index);
    spec = space.site(siteIdx);
    rec.kind = spec.kind;
    rec.unit = spec.unit;
    rec.runIndex = run_index;
    rec.siteIndex = siteIdx;
    if (strat)
        rec.stratumLabel =
            strat->stratum(strat->stratumOfRun(run_index)).label;
    if (!spec.isMemory)
        // Golden activity oracle: no hook call of the golden pass
        // named this SM inside the window, so the fault cannot
        // activate and the run is the golden run — Masked, not
        // activated.
        return !settledByOracle(ladder, spec);

    rec.isMemory = true;
    rec.memKind = spec.memKind;
    // Golden access log: an upset the run never reads, or whose first
    // read the codec corrects (and scrubs), leaves the run the golden
    // run; one whose first read the codec flags ends the run there,
    // a machine-checked DUE.
    const auto settled =
        settledByAccessLog(*access_log, spec, cfg.gpu.eccKind);
    switch (settled) {
      case MemSettlement::Corrected:
        rec.activated = true;
        rec.cls = OutcomeClass::EccCorrected;
        break;
      case MemSettlement::Uncorrectable:
        rec.activated = true;
        rec.cls = OutcomeClass::Due;
        break;
      case MemSettlement::Simulate:
      case MemSettlement::NotRead:
        break;
    }
    return settled == MemSettlement::Simulate;
}

/** Count run @p rec, which a golden log settled, under its verdict. */
void
countSettled(ForkTelemetry &t, const RunRecord &rec)
{
    if (!rec.isMemory)
        ++t.settledOracle;
    else if (!rec.activated)
        ++t.settledNotRead;
    else if (rec.cls == OutcomeClass::EccCorrected)
        ++t.settledCorrected;
    else
        ++t.settledMachineCheck;
}

/**
 * What classifying a site reads of its run, straight off the site
 * machine's SMs: the fields of the LaunchResult Gpu::finish would
 * build from them (the aggregation concatenates the SMs' error logs
 * in SM order, so the first detection is the first non-empty log's
 * front).
 */
struct SiteEnd
{
    SiteEnd(const gpu::Gpu &g, const gpu::LaunchLoop::Outcome &o)
        : cycles(o.cycles), hung(o.hung)
    {
        for (const auto &sp : g.sms()) {
            const dmr::DmrStats &d = sp->scheme().stats();
            detections += d.errorsDetected;
            if (!firstDetection && !d.errorLog.empty())
                firstDetection = d.errorLog.front().cycle;
            if (sp->recovery())
                recovery.merge(sp->recovery()->stats());
        }
    }

    Cycle cycles;
    bool hung;
    std::uint64_t detections = 0;
    std::optional<Cycle> firstDetection;
    recovery::RecoveryStats recovery;
};

/** Clears a resident machine's per-site attachments however the site
 *  ends (aborted runs throw). */
struct SiteScope
{
    gpu::Gpu &g;
    ~SiteScope()
    {
        g.setHook(nullptr);
        g.mem().attachFaultPlane(nullptr);
    }
};

/**
 * One worker's resident machine pair (docs/ARCHITECTURE.md, "Resident
 * machines and the sweep"): a golden machine that sweeps forward
 * through the golden run under the fault-free hook, and a site
 * machine that each simulated site is forked into. Both are built
 * once and kept for the engine's lifetime; the workload is made
 * and set up once, on the site machine (the golden machine's first
 * rung restore writes its global memory).
 *
 * A site forked at cycle c (Ladder::execFork, or a memory upset's
 * strike) is the golden run until c (docs/FAULT_MODEL.md, "Snapshot
 * fork"): the golden machine advances to c — restarting from the
 * ladder rung at or before c when that rung is ahead of it — and the
 * site machine is made equal to it there (gpu::Gpu::forkFrom, which
 * copies only what either machine changed since their previous
 * fork). The site machine then runs under the site's fault to its
 * usual exit, and the site is classified from its SMs (SiteEnd), with
 * no launch result built.
 */
class Resident
{
  public:
    Resident(const WorkloadFactory &factory, const EngineConfig &cfg,
             const gpu::Ladder &ladder, Cycle span)
        : cfg_(cfg), ladder_(ladder),
          // A fault can corrupt a loop counter and hang the kernel:
          // give it a generous multiple of the fault-free span.
          watchdog_(span * 20 + 100000),
          w_(factory()),
          golden_(cfg.gpu, cfg.dmr, /*seed=*/1, nullptr, cfg.recovery,
                  cfg.scheme),
          site_(cfg.gpu, cfg.dmr, /*seed=*/1, nullptr, cfg.recovery,
                cfg.scheme)
    {
        w_->setup(site_);
    }

    /** Classify the drawn, unsettled site @p spec of @p rec, forked
     *  from the golden run at cycle @p fork. */
    void
    simulate(RunRecord &rec, const FaultSpec &spec, Cycle fork)
    {
        ++tel_.sitesSimulated;
        // An injected fault (or, with recovery on, a rollback
        // livelock) can drive the simulator into one of its own
        // sanity panics — warped_panic throws. That must cost the
        // campaign one run, not the whole campaign: the site is
        // classified as an aborted hang-DUE. (Retrying is pointless:
        // the run is a pure function of its index, so a rerun panics
        // again.) The next site restores both machines, whatever
        // state the panic left them in.
        try {
            if (spec.isMemory)
                simulateMemory(rec, spec, fork);
            else
                simulateExec(rec, spec, fork);
        } catch (const std::exception &e) {
            warped_warn("campaign: ", spec.isMemory ? "memory run " : "run ",
                        rec.runIndex, " (site ", rec.siteIndex, ", seed ",
                        cfg_.seed, ") aborted: ", e.what(),
                        "; classifying as hang-DUE");
            goldenValid_ = false;
            rec.activated = true;
            rec.cls = OutcomeClass::Due;
            rec.hasLatency = false;
            rec.aborted = true;
        }
    }

    const ForkTelemetry &telemetry() const { return tel_; }
    void resetTelemetry() { tel_ = {}; }

    /** The cycle its golden machine stands at; nothing when the next
     *  fork must restart it from a rung. */
    std::optional<Cycle>
    goldenCycle() const
    {
        if (!goldenValid_)
            return std::nullopt;
        return golden_.cycle();
    }

  private:
    /** Put the site machine at the golden run's state at @p fork (or
     *  at its end, when that comes first); returns the cycle. */
    Cycle
    forkAt(Cycle fork)
    {
        const auto &prog = w_->program();
        const unsigned grid = w_->gridBlocks();
        const unsigned block = w_->blockThreads();
        const gpu::Snapshot &rung = ladder_.rungAt(fork);
        if (!goldenValid_ || golden_.cycle() > fork ||
            rung.loop.cycle > golden_.cycle()) {
            golden_.restore(prog, grid, block, rung);
            goldenValid_ = true;
            ++tel_.rungForks;
        } else {
            ++tel_.sweepForks;
        }
        const Cycle from = golden_.cycle();
        golden_.advanceTo(fork);
        tel_.goldenCycles += golden_.cycle() - from;
        tel_.planesCopied += site_.forkFrom(golden_);
        return site_.cycle();
    }

    void
    simulateExec(RunRecord &rec, const FaultSpec &spec, Cycle fork)
    {
        // Early exits (docs/FAULT_MODEL.md): stop simulating once the
        // run's class can no longer change. Window-closed: nothing
        // has activated and no window is open any more, so the run is
        // the golden run from here on — Masked, not activated, for
        // every scheme. First-detection: with recovery off a
        // comparator alarm already makes the run Detected, and the
        // latency inputs (errorLog.front(), firstActivationCycle())
        // are final.
        const bool firstDetectionExit =
            !cfg_.recovery.enabled &&
            cfg_.scheme.id == protection::SchemeId::WarpedDmr;
        FaultInjector injector;
        injector.add(spec);
        const gpu::StopPredicate stop =
            [&injector, firstDetectionExit](Cycle cycle,
                                            const gpu::LaunchLoop &loop) {
                if (injector.activations() == 0)
                    return injector.windowsClosedBy(cycle);
                return firstDetectionExit && loop.detections() > 0;
            };
        const Cycle start = forkAt(fork);
        SiteScope scope{site_};
        site_.setHook(&injector);
        const SiteEnd r(site_, site_.runToEnd(watchdog_, stop));
        tel_.siteCycles += r.cycles - start;

        rec.activated = injector.activations() > 0;
        const bool detected = r.detections > 0;
        const bool recoveredClean = cfg_.recovery.enabled && detected &&
                                    r.recovery.giveUps == 0;
        // The golden-reference comparison: Workload::verify checks
        // the output buffers against the CPU reference, which the
        // fault-free golden run was itself validated against (in
        // prepare). A detected run's output only matters when
        // rollback-replay claims a clean repair, so verify() is also
        // called for those.
        bool outputOk = true;
        if (rec.activated && !r.hung && (!detected || recoveredClean))
            outputOk = w_->verify(site_);
        rec.cls = classifyOutcome(rec.activated, detected, r.hung,
                                  outputOk, recoveredClean);
        if ((rec.cls == OutcomeClass::Detected ||
             rec.cls == OutcomeClass::Recovered) &&
            r.firstDetection) {
            const Cycle det = *r.firstDetection;
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
    }

    /**
     * A detected-uncorrectable read is a machine check that ends the
     * run as a DUE, yet this runs the site to its usual exit with no
     * stop predicate: no simulated site can raise one. The golden
     * access log settles every site whose first read the codec
     * corrects or flags, so a simulated site's first read was silent
     * (settledByAccessLog), and the codes are linear, so every later
     * read of the same upset is silent too
     * (mem::MemFaultPlane::readStatus).
     */
    void
    simulateMemory(RunRecord &rec, const FaultSpec &spec, Cycle fork)
    {
        // Memory-cell upset: no execution-side hook; the fault lives
        // in the global memory's fault plane and every read of the
        // upset word is filtered through the configured ECC codec.
        const Cycle start = forkAt(fork);
        mem::MemFaultPlane plane(cfg_.gpu.eccKind);
        plane.inject(spec.memAddr, spec.memKind, spec.bit, spec.cycleBegin);
        SiteScope scope{site_};
        site_.mem().attachFaultPlane(&plane);
        const SiteEnd r(site_, site_.runToEnd(watchdog_));
        tel_.siteCycles += r.cycles - start;
        // Host readback goes through the plane too, so an upset that
        // survives in an output word is caught by verify() whether or
        // not the kernel ever loaded it.
        bool outputOk = true;
        if (!r.hung)
            outputOk = w_->verify(site_);
        assert(plane.uncorrectable() == 0);
        rec.activated = plane.consumedReads() > 0;
        rec.cls = classifyMemOutcome(
            rec.activated, plane.uncorrectable() > 0, plane.corrected() > 0,
            r.detections > 0, r.hung, outputOk);
    }

    const EngineConfig &cfg_;
    const gpu::Ladder &ladder_;
    Cycle watchdog_;
    std::unique_ptr<workloads::Workload> w_;
    gpu::Gpu golden_;
    gpu::Gpu site_;
    /** The golden machine stands somewhere on the golden run. */
    bool goldenValid_ = false;
    ForkTelemetry tel_;
};

/** A drawn run: its record slot, its site and, when no golden log
 *  settled it, the cycle it forks from the golden run at. */
struct Draw
{
    std::size_t slot = 0;
    bool simulate = false;
    Cycle fork = 0;
    FaultSpec spec;
};

} // namespace

/** The engine's resident machine pairs (see Resident), built on
 *  first use and kept for the engine's lifetime. */
class CampaignEngine::Sweep
{
  public:
    explicit Sweep(const CampaignEngine &e) : e_(e) {}

    /**
     * Classify runs [base, base + records.size()) into @p records.
     * Sites the golden logs settle are decided in place; the rest are
     * sorted by fork cycle and forked in that order on the resident
     * machine pairs, one per worker of @p pool. Each record depends
     * only on its run index, so the records fold identically for
     * every worker count.
     */
    void
    classify(std::uint64_t base, std::vector<RunRecord> &records,
             sim::RunPool &pool)
    {
        // Draws take about a microsecond each: one pool task per
        // worker, not per run.
        const std::size_t n = records.size();
        std::vector<Draw> order(n);
        const std::size_t blocks = std::min<std::size_t>(pool.jobs(), n);
        pool.parallelFor(blocks, [&](std::size_t b) {
            for (std::size_t i = n * b / blocks; i < n * (b + 1) / blocks;
                 ++i) {
                Draw &d = order[i];
                d.slot = i;
                d.simulate = drawRun(base + i, *e_.space_,
                                     e_.strat_ ? &*e_.strat_ : nullptr,
                                     e_.cfg_, *e_.ladder_,
                                     e_.accessLog_.get(), records[i],
                                     d.spec);
                if (d.simulate)
                    d.fork = d.spec.isMemory
                                 ? d.spec.cycleBegin
                                 : e_.ladder_->execFork(d.spec.cycleBegin);
            }
        });
        for (const Draw &d : order)
            if (!d.simulate)
                countSettled(settled_, records[d.slot]);
        std::erase_if(order, [](const Draw &d) { return !d.simulate; });
        std::stable_sort(order.begin(), order.end(),
                         [](const Draw &a, const Draw &b) {
                             return a.fork < b.fork;
                         });
        // One resident pair per worker that can be busy. They are
        // built here, on the calling thread, so their global-memory
        // buffers come from and go back to this thread's buffer pool
        // (common/buffer_pool.hh) instead of being mapped and unmapped
        // by short-lived pool threads on every run().
        const std::size_t pairs = std::min<std::size_t>(pool.jobs(),
                                                        order.size());
        while (free_.size() < pairs)
            free_.push_back(std::make_unique<Resident>(
                e_.factory_, e_.cfg_, *e_.ladder_, e_.span_));
        // One pool task per simulated site, in fork order, on a free
        // resident pair: the pool balances sites of unequal cost (a
        // memory site runs to the kernel's end), and since the tasks
        // start in fork order each pair's golden machine still only
        // moves forward through the chunk.
        pool.parallelFor(order.size(), [&](std::size_t k) {
            const Draw &d = order[k];
            std::unique_ptr<Resident> r = acquire(d.fork);
            r->simulate(records[d.slot], d.spec, d.fork);
            std::lock_guard lock(mu_);
            free_.push_back(std::move(r));
        });
    }

    ForkTelemetry
    telemetry() const
    {
        ForkTelemetry t = settled_;
        for (const auto &r : free_)
            t += r->telemetry();
        return t;
    }

    void
    resetTelemetry()
    {
        settled_ = {};
        for (const auto &r : free_)
            r->resetTelemetry();
    }

  private:
    /** The free pair whose golden machine stands latest at or before
     *  @p fork, else any free pair. A worker runs one site at a time,
     *  so one pair per worker is always enough. */
    std::unique_ptr<Resident>
    acquire(Cycle fork)
    {
        std::lock_guard lock(mu_);
        if (free_.empty())
            warped_panic("campaign: no free resident machine pair");
        auto best = free_.begin();
        std::optional<Cycle> at;
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            const auto c = (*it)->goldenCycle();
            if (c && *c <= fork && (!at || *c > *at)) {
                best = it;
                at = c;
            }
        }
        auto r = std::move(*best);
        free_.erase(best);
        return r;
    }

    const CampaignEngine &e_;
    /** Guards free_; a pair in use belongs to the task running it. */
    std::mutex mu_;
    std::vector<std::unique_ptr<Resident>> free_;
    /** The settled counts (classify's calling thread only). */
    ForkTelemetry settled_;
};

CampaignEngine::~CampaignEngine() = default;

CampaignEngine::Sweep &
CampaignEngine::resetSweep()
{
    if (!sweep_)
        sweep_ = std::make_unique<Sweep>(*this);
    sweep_->resetTelemetry();
    return *sweep_;
}

namespace {

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
    mix(cfg.recovery.enabled);
    mix(cfg.recovery.retryBudget);
    mix(cfg.recovery.ringCapacity);
    mix(cfg.recovery.rollbackPenalty);
    mix(static_cast<std::uint64_t>(cfg.scheme.id));
    mix(static_cast<std::uint64_t>(cfg.scheme.protectFraction * 1e9));
    // The memory knobs that change run *outcomes*; the site space's
    // own memory axes are already in space.signature().
    mix(static_cast<std::uint64_t>(cfg.gpu.memModel));
    mix(static_cast<std::uint64_t>(cfg.gpu.eccKind));
    mix(cfg.gpu.memBanks);
    mix(cfg.gpu.memRowBytes);
    mix(cfg.gpu.memRowMissPenalty);
    mix(cfg.space.execEnabled);
    mix(cfg.space.memEnabled);
    // Stratified sampling changes which site run i draws.
    mix(cfg.strataWindows);
    return h;
}

void
writeCheckpoint(const std::string &path, const CampaignReport &rep,
                std::uint64_t signature)
{
    // A checkpoint is the shard delta of runs [0, sampled): counters
    // only (integers round-trip exactly; every gauge is derivable from
    // them), under the delta's header and payload fingerprint, so a
    // torn or damaged file is *detected* on resume instead of silently
    // restoring a prefix of itself.
    const std::string text =
        ShardDelta{0, 0, rep.sampled, signature, rep.counters()}.toJson();
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp);
        if (!f) {
            warped_warn("campaign: cannot write checkpoint ", tmp);
            return;
        }
        f << text;
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
 *  the file is absent or is a stale checkpoint (another version
 *  header, such as an older checkpoint format, or another signature —
 *  warned and ignored). Throws CheckpointError when the file exists
 *  but is oversized, torn, fails its integrity fingerprint, or is not
 *  the delta of a run prefix. */
bool
loadCheckpoint(const std::string &path, std::uint64_t signature,
               CampaignReport &rep)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::stringstream ss;
    ss << f.rdbuf();
    ShardDelta d;
    try {
        d = ShardDelta::fromJson(ss.str());
    } catch (const ShardVersionError &) {
        warped_warn("campaign: checkpoint ", path,
                    " has an unknown format version; ignoring");
        return false;
    } catch (const ShardError &e) {
        throw CheckpointError("checkpoint " + path + ": " + e.what());
    }
    if (d.signature != signature) {
        warped_warn("campaign: checkpoint ", path,
                    " does not match this configuration; ignoring");
        return false;
    }
    const auto sampled = d.counters.find("campaign.sampled");
    if (d.shard != 0 || d.base != 0 || sampled == d.counters.end() ||
        sampled->second != d.count)
        throw CheckpointError("checkpoint " + path +
                              " is not the delta of a run prefix: its "
                              "header is damaged");
    restoreReportCounters(d.counters, rep);
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
    rep.sampled = get("campaign.sampled");
    restoreCounts(kv, "campaign.outcome", rep.overall);

    // Kind, unit and memory-kind labels are discovered from the key
    // set itself; stratum labels come from the skeleton.
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
    for (const auto &[label, n] : rep.stratumSizes) {
        OutcomeCounts c;
        restoreCounts(kv, "campaign.stratum." + label, c);
        if (c.total())
            rep.byStratum[label] = c;
    }

    restoreHist(kv, "campaign.latency.hist", rep.latencyHist);
    rep.latencySum = get("campaign.latency.sum");
    rep.latencyCount = get("campaign.latency.count");
    rep.kernelLengthSum = get("campaign.latency.kernel_sum");
    restoreHist(kv, "campaign.recovery.hist", rep.recoveryHist);
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
    //    The ladder every injected run forks by (snapshot rungs and
    //    the per-cycle horizon table) is captured during the same
    //    pass, under the horizon hook (a fault-free hook, so the pass
    //    is unchanged).
    //    With memory sites in the space, the same pass records the
    //    golden access log through a recording fault plane, from
    //    after setup through verify's host readback — the window an
    //    injected memory run's plane is attached for.
    auto ladder = std::make_shared<gpu::Ladder>();
    std::shared_ptr<mem::MemAccessLog> access_log;
    struct Pass
    {
        Cycle cycles;
        std::uint64_t footprintWords;
    };
    const auto fault_free_pass = [&](const recovery::RecoveryConfig &rcfg,
                                     gpu::SnapshotSink *sink) {
        auto w = factory_();
        gpu::Gpu g(cfg_.gpu, cfg_.dmr, /*seed=*/1,
                   sink ? &ladder->hook() : nullptr, rcfg, cfg_.scheme);
        w->setup(g);
        // Device footprint the memory-cell axes cover: every word
        // the workload's allocator handed out (inputs, outputs and
        // scratch — dead words are legitimate Masked sites).
        const std::uint64_t footprint = g.allocator().used() / 4;
        mem::MemFaultPlane recorder(cfg_.gpu.eccKind);
        if (sink && cfg_.space.memEnabled) {
            // The log spans every word a memory site can strike, so
            // the log decides every memory site (settledByAccessLog).
            access_log = std::make_shared<mem::MemAccessLog>(
                std::max(footprint, cfg_.space.memWords));
            recorder.recordInto(access_log.get());
            g.mem().attachFaultPlane(&recorder);
        }
        const auto r = g.launch(w->program(), w->gridBlocks(),
                                w->blockThreads(), 0, {}, nullptr, sink);
        if (!w->verify(g))
            warped_fatal("workload '", w->name(),
                         "' failed output verification on a fault-free "
                         "GPU");
        g.mem().attachFaultPlane(nullptr);
        // The log shows the golden run only if that is what this
        // pass was; a comparator alarm here would make it otherwise.
        if (access_log && r.dmr.errorsDetected > 0)
            warped_fatal("workload '", w->name(),
                         "' raised a DMR alarm on a fault-free GPU");
        return Pass{r.cycles, footprint};
    };
    const Pass golden = fault_free_pass(
        {}, cfg_.recovery.enabled ? nullptr : ladder.get());
    const Cycle span = golden.cycles;
    const std::uint64_t footprint_words = golden.footprintWords;
    //    Injected runs carry the campaign's recovery engine, a
    //    different machine state from cycle 0 on, so their ladder
    //    comes from one more fault-free pass under that
    //    configuration. It ends a few cycles after the golden span
    //    (the retire gate holds BAR/EXIT for unverified work); the
    //    span stays the golden one — the pass only supplies rungs.
    if (cfg_.recovery.enabled)
        fault_free_pass(cfg_.recovery, ladder.get());
    ladder_ = std::move(ladder);
    accessLog_ = std::move(access_log);

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
    rep.scheme = cfg_.scheme;
    if (strat_) {
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
    Sweep &sweep = resetSweep();
    std::vector<RunRecord> records(static_cast<std::size_t>(count));
    sweep.classify(base, records, pool);
    for (const auto &rec : records)
        fold(rep, rec);
    telemetry_ = sweep.telemetry();
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
    //    worker-count-independent), then checkpoints. A zero chunk
    //    would never fold a run, so it is clamped; the last chunk
    //    ends at the plan whatever the chunk size.
    sim::RunPool pool(cfg_.jobs);
    std::uint64_t chunkSize = cfg_.checkpointEvery;
    if (chunkSize == 0) {
        warped_warn("campaign: checkpointEvery 0 would never "
                    "checkpoint; clamping to 1000");
        chunkSize = 1000;
    }
    Sweep &sweep = resetSweep();
    std::vector<RunRecord> records;
    std::uint64_t chunks = 0;
    while (rep.sampled < planned_) {
        const auto base = rep.sampled;
        const auto n = std::min(chunkSize, planned_ - base);
        records.assign(static_cast<std::size_t>(n), RunRecord{});
        sweep.classify(base, records, pool);
        for (const auto &rec : records)
            fold(rep, rec);
        if (!cfg_.checkpointPath.empty())
            writeCheckpoint(cfg_.checkpointPath, rep, signature_);
        if (cfg_.stopAfterChunks && ++chunks >= cfg_.stopAfterChunks)
            break;
    }
    telemetry_ = sweep.telemetry();
    return rep;
}

} // namespace fault
} // namespace warped
