/**
 * @file
 * fault::CampaignEngine — statistical fault-injection campaigns with
 * outcome classification.
 *
 * The engine turns the paper's headline coverage claim into a
 * measured, interval-bounded statement: it draws fault sites from a
 * FaultSiteSpace (seeded, i.i.d.), runs one injected experiment per
 * site against the workload's golden (fault-free) reference, and
 * classifies every experiment into the standard fault-injection
 * taxonomy:
 *
 *  - **Masked**:   no DMR alarm and the output matches the golden
 *                  reference (the fault never activated, or its
 *                  effect died out architecturally);
 *  - **Detected**: the Warped-DMR comparator fired;
 *  - **Recovered**: the comparator fired *and* the rollback-replay
 *                  engine repaired the run — no give-ups, no hang,
 *                  and the final output matches the golden
 *                  reference. Only possible when
 *                  EngineConfig::recovery is enabled; Recovered runs
 *                  are a refinement of Detected, never of SDC, so
 *                  enabling recovery can only move runs out of the
 *                  Detected bucket.
 *  - **EccCorrected**: memory sites only — the configured ECC codec
 *                  transparently repaired every read of the upset
 *                  word, no alarm needed and the output is golden.
 *                  The memory-side analogue of Recovered;
 *  - **SDC**:      silent data corruption — wrong output, no alarm;
 *  - **DUE**:      detectable uncorrectable event — the fault broke
 *                  control flow and the watchdog ended the run, an
 *                  ECC-flagged read raised a machine check (memory
 *                  sites), or the run tripped a simulator sanity
 *                  panic (an aborted run, counted in abortedRuns).
 *
 * The resulting CampaignReport carries per-kind and per-unit outcome
 * breakdowns, Wilson-score confidence intervals, detection-latency
 * histograms, and a flat JSON rendering through trace::MetricsRegistry
 * (sorted keys, fixed precision — byte-identical across `--jobs`
 * values and safe to diff).
 *
 * Each injected run forks from the golden run at the latest cycle its
 * fault cannot have touched (docs/FAULT_MODEL.md, "Snapshot fork"),
 * instead of replaying the fault-free prefix: the runs of a chunk are
 * sorted by fork cycle, and each worker sweeps one resident golden
 * machine forward through the sites it takes, restoring the golden
 * state at each fork cycle in place into one resident site machine. A run whose fault window the golden
 * pass never asked the hook about is settled with no simulation at
 * all (settledByOracle), and so is a memory run whose upset the
 * golden pass never read, or first read through a codec that
 * corrects or flags it (settledByAccessLog).
 *
 * Long campaigns checkpoint periodically to a JSON state file and
 * resume from it: runs are folded in submission-index order in
 * fixed-size chunks, so the accumulated state after run k is
 * independent of the worker count, and a resumed campaign's final
 * report is byte-identical to an uninterrupted one.
 */

#ifndef WARPED_FAULT_CAMPAIGN_ENGINE_HH
#define WARPED_FAULT_CAMPAIGN_ENGINE_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "dmr/dmr_config.hh"
#include "fault/site_space.hh"
#include "fault/stratified.hh"
#include "protection/scheme_registry.hh"
#include "recovery/recovery_config.hh"
#include "stats/accumulator.hh"
#include "stats/confidence.hh"
#include "stats/histogram.hh"
#include "trace/metrics.hh"
#include "workloads/workload.hh"

namespace warped {
namespace gpu {
class Ladder;
}
namespace mem {
class MemAccessLog;
}
namespace fault {

/**
 * A campaign state file (checkpoint or shard delta) that exists but
 * is structurally torn or fails its integrity fingerprint. Distinct
 * from a *stale* checkpoint (configuration-signature mismatch), which
 * is warned about and ignored: a torn file means the previous writer
 * crashed mid-write or the file was damaged, and silently restarting
 * from zero would destroy the very progress checkpointing exists to
 * protect — so it is an error the caller must see.
 */
struct CheckpointError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The campaign outcome taxonomy (see file comment). */
enum class OutcomeClass
{
    Masked,
    Detected,
    Recovered,
    EccCorrected,
    Sdc,
    Due,
};

/** Lower-case stable label ("masked", "detected", "recovered",
 *  "ecc_corrected", "sdc", "due"). */
const char *outcomeClassName(OutcomeClass c);

/**
 * Classify one finished injected run.
 *
 * @param activated whether the fault ever changed a produced value
 * @param detected  whether the DMR comparator fired
 * @param hung      whether the run hit its watchdog budget
 * @param output_ok whether the output matches the golden reference
 * @param recovered_clean whether rollback-replay ran with zero
 *        give-ups (always false when recovery is disabled)
 *
 * A detected run is Recovered only when the recovery engine never
 * gave up, the run finished (no hang), and the output is golden —
 * anything less stays Detected. SDC remains reachable only from
 * undetected runs, so turning recovery on can never mint a new SDC.
 */
OutcomeClass classifyOutcome(bool activated, bool detected, bool hung,
                             bool output_ok, bool recovered_clean);

/**
 * Classify one finished *memory-site* run (the ECC-side taxonomy).
 *
 * @param activated        the upset word was read at least once
 * @param ecc_uncorrectable the codec flagged a detected-but-
 *        uncorrectable read — a machine check, so a memory DUE
 *        regardless of output
 * @param ecc_corrected    the codec transparently repaired a read
 * @param detected         the execution-side DMR comparator fired
 *        (essentially unreachable for memory data faults: redundant
 *        executions consume the same corrupted value — the escape
 *        this taxonomy exists to measure)
 * @param hung             the run hit its watchdog budget
 * @param output_ok        output matches the golden reference
 *
 * Precedence: never-read upsets are Masked; an uncorrectable flag or
 * a hang is DUE; a DMR alarm is Detected; a wrong output is SDC;
 * a corrected-and-clean run is EccCorrected; anything else (e.g. the
 * upset was overwritten before any read went wrong) is Masked.
 */
OutcomeClass classifyMemOutcome(bool activated, bool ecc_uncorrectable,
                                bool ecc_corrected, bool detected,
                                bool hung, bool output_ok);

/** Outcome tally for one slice of the campaign (a kind, a unit, or
 *  the whole campaign). */
struct OutcomeCounts
{
    std::uint64_t masked = 0;
    std::uint64_t detected = 0;
    /** Detected runs rollback-replay fully repaired (disjoint from
     *  `detected`; zero whenever recovery is disabled). */
    std::uint64_t recovered = 0;
    /** Memory-site runs the ECC codec transparently repaired (zero
     *  for execution-only campaigns). */
    std::uint64_t eccCorrected = 0;
    std::uint64_t sdc = 0;
    std::uint64_t due = 0;
    /** Masked runs whose fault never even activated (subset of
     *  `masked`). */
    std::uint64_t notActivated = 0;

    std::uint64_t total() const
    {
        return masked + detected + recovered + eccCorrected + sdc +
               due;
    }

    void add(OutcomeClass c, bool activated);

    /** Fraction of sampled sites whose injection raised the DMR
     *  alarm — the campaign counterpart of the paper's Fig 9a
     *  coverage (masked sites count against it; see
     *  docs/FAULT_MODEL.md for why). Recovered runs were detected
     *  runs first, so they count toward coverage; EccCorrected runs
     *  count too — the ECC controller both detected and repaired
     *  them (the combined DMR+ECC protection surface). */
    double coverage() const;

    /** Wilson interval around coverage(). */
    stats::Interval coverageCi(double z = stats::kZ95) const;

    /** Detected fraction of the *consequential* (non-masked) runs. */
    double detectionRate() const;

    /** Wilson interval around detectionRate(). */
    stats::Interval detectionCi(double z = stats::kZ95) const;
};

/** Detection-latency histogram geometry: bucket b holds latencies
 *  with bit-width b, i.e. [2^(b-1), 2^b) cycles (bucket 0 = zero
 *  cycles). */
inline constexpr unsigned kLatencyBuckets = 48;

/** Bucket index for one latency value. */
unsigned latencyBucket(std::uint64_t cycles);

/** Aggregated campaign results (see file comment). */
struct CampaignReport
{
    /** Enumerable site-space size the sample was drawn from. */
    std::uint64_t spaceSize = 0;
    /** Sites sampled and classified so far. */
    std::uint64_t sampled = 0;
    /** Fault-free reference run length in cycles. */
    std::uint64_t span = 0;

    OutcomeCounts overall;
    std::map<FaultKind, OutcomeCounts> byKind;
    /** Keyed by unit restriction label ("any", "SP", "SFU", "LDST"). */
    std::map<std::string, OutcomeCounts> byUnit;
    /** Memory-site runs broken down by upset shape (empty for
     *  execution-only campaigns; memory runs fold here and into
     *  `overall`, not into byKind/byUnit). */
    std::map<mem::MemFaultKind, OutcomeCounts> byMemKind;

    /** Per-stratum outcome tallies, keyed by StratifiedSpace labels
     *  ("any.w03", "sp.perm", "mem.w01", ...). */
    std::map<std::string, OutcomeCounts> byStratum;
    /** Stratum population sizes N_h — the weights of the stratified
     *  estimator; filled for every stratum, sampled or not, and empty
     *  under uniform sampling. */
    std::map<std::string, std::uint64_t> stratumSizes;

    /** Cycles from firstActivationCycle() to the first DMR detection
     *  event, log2-bucketed (see latencyBucket). */
    stats::Histogram latencyHist{kLatencyBuckets};
    std::uint64_t latencySum = 0;
    /** Number of detected runs with a recorded latency. */
    std::uint64_t latencyCount = 0;
    /** Sum of golden-run lengths over those runs: the detection
     *  latency protection::ReplayCompareScheme pays — its comparator
     *  fires only at the end-of-kernel replay (run a campaign with
     *  `--scheme replay-compare` to see the measured histogram land
     *  in the top buckets). */
    std::uint64_t kernelLengthSum = 0;

    /** The protection backend the campaign ran against. */
    protection::SchemeConfig scheme;

    /** Cycles rollback-replay spent repairing each Recovered run
     *  (LaunchResult recovery.recoveryCycles), log2-bucketed like
     *  the detection-latency histogram. */
    stats::Histogram recoveryHist{kLatencyBuckets};
    std::uint64_t recoverySum = 0;
    std::uint64_t recoveryCount = 0;
    /** Rollbacks / give-ups summed over every injected run. */
    std::uint64_t rollbacks = 0;
    std::uint64_t giveUps = 0;

    /** Runs that tripped a simulator sanity panic before any machine
     *  check and were force-classified as hang-DUE (a run is a pure
     *  function of its index, so it is never retried). */
    std::uint64_t abortedRuns = 0;
    /** First few aborted sites, for post-mortem reproduction (not
     *  checkpointed — diagnostics only). */
    struct AbortRecord
    {
        std::uint64_t runIndex;
        std::uint64_t siteIndex;
    };
    static constexpr std::size_t kMaxAbortLog = 64;
    std::vector<AbortRecord> abortLog;

    double meanDetectionLatency() const;

    /** Mean repair cost over Recovered runs, in cycles. */
    double meanRecoveryCycles() const;

    /** Caught (detected + recovered + ecc-corrected) runs — the
     *  "success" of every proportion this report estimates. */
    static std::uint64_t caught(const OutcomeCounts &c)
    {
        return c.detected + c.recovered + c.eccCorrected;
    }

    /** The stratified (Cochran) coverage estimator: strata in label
     *  order, weighted by stratumSizes, caught/total from byStratum. */
    stats::StratifiedEstimator stratifiedCoverage() const;

    /** Version of the report document, echoed as campaign.schema. */
    static constexpr std::uint64_t kSchema = 2;

    /**
     * The additive counts alone: every key sums across disjoint run
     * ranges, so this is what shard deltas and checkpoints carry. The
     * configuration echo (space size, span, scheme, stratum sizes)
     * is not here; a reader takes it from its own skeleton.
     */
    std::map<std::string, std::uint64_t> counters() const;

    /**
     * Flat metrics rendering in a trace::MetricsRegistry (sorted keys,
     * fixed precision): the configuration echo from this report's
     * skeleton fields, counters(), and the gauges derived from them
     * (docs/ARCHITECTURE.md, "Report schema 2").
     */
    trace::MetricsRegistry toMetrics() const;

    /** toMetrics() rendered as the registry's JSON document. */
    std::string toJson() const;
};

/**
 * Rebuild every counter-derived field of @p rep from a flat counter
 * map (the inverse of CampaignReport::counters). Callers seed @p rep
 * with CampaignEngine::skeleton(), which carries the configuration
 * echo and the stratum labels; the other breakdown labels (kinds,
 * units, memory kinds) are discovered by scanning the key set.
 * Shared by the checkpoint loader and the shard aggregator; gauges
 * are never restored (they are derived, and toMetrics recomputes
 * them exactly).
 */
void
restoreReportCounters(const std::map<std::string, std::uint64_t> &kv,
                      CampaignReport &rep);

/**
 * The golden activity oracle (docs/FAULT_MODEL.md, "Golden activity
 * oracle"): an execution-unit site whose SM no hook call of the
 * ladder's capturing pass named inside the site's cycle window can
 * never activate, so it is Masked and not activated without any
 * simulation. Memory sites are settled by settledByAccessLog.
 */
bool settledByOracle(const gpu::Ladder &ladder, const FaultSpec &spec);

/** What the golden access log decides about a memory site. */
enum class MemSettlement
{
    Simulate,      ///< a silent first read, or no memory site: run it
    NotRead,       ///< Masked, not activated
    Corrected,     ///< EccCorrected, activated
    Uncorrectable, ///< machine check: DUE, activated
};

/**
 * The golden access log (docs/FAULT_MODEL.md, "Golden access log"):
 * a memory upset whose word the ladder's capturing pass (kernel and
 * verify readback) never touched from the strike on, or wrote first,
 * is never read, so the run is the golden run (NotRead). One that is
 * read first is decided by what @p ecc makes of that read
 * (mem::MemFaultPlane::readStatus): a corrected read scrubs the upset
 * and the run is again the golden run, with one corrected read
 * (Corrected); a flagged read is a machine check that ends the run
 * as a DUE (Uncorrectable). A silent first read, and every execution
 * site, is Simulate.
 */
MemSettlement settledByAccessLog(const mem::MemAccessLog &log,
                                 const FaultSpec &spec,
                                 arch::EccKind ecc);

/** Workload factory: a fresh instance for the golden pass and one per
 *  resident machine pair (at most one pair per worker; pairs run
 *  concurrently), set up once and then used for every site the pair
 *  simulates. */
using WorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>()>;

/**
 * What the sweep of the last run()/runRange() simulated. The sites
 * simulated and their cycles are deterministic; with more than one
 * worker, which pair forks which site (and so the fork split and the
 * golden cycles) depends on scheduling. The report never depends on
 * any of it, so it is kept out of the report.
 */
struct ForkTelemetry
{
    /** Sites the golden activity oracle settled, and memory sites the
     *  golden access log settled, by verdict; with sitesSimulated
     *  they sum to the runs classified. */
    std::uint64_t settledOracle = 0;
    std::uint64_t settledNotRead = 0;
    std::uint64_t settledCorrected = 0;
    std::uint64_t settledMachineCheck = 0;
    /** Sites neither golden log settled. */
    std::uint64_t sitesSimulated = 0;
    /** Forks the golden machine reached by sweeping on from the
     *  previous fork, and by restarting from a ladder rung. */
    std::uint64_t sweepForks = 0;
    std::uint64_t rungForks = 0;
    /** Cycles the golden machines advanced. */
    std::uint64_t goldenCycles = 0;
    /** Cycles the site machines simulated, fork to exit. */
    std::uint64_t siteCycles = 0;
    /** Register planes the forks copied from golden to site machine
     *  (gpu::Gpu::forkFrom): only those either machine wrote since
     *  the pair's previous fork. */
    std::uint64_t planesCopied = 0;

    ForkTelemetry &
    operator+=(const ForkTelemetry &o)
    {
        settledOracle += o.settledOracle;
        settledNotRead += o.settledNotRead;
        settledCorrected += o.settledCorrected;
        settledMachineCheck += o.settledMachineCheck;
        sitesSimulated += o.sitesSimulated;
        sweepForks += o.sweepForks;
        rungForks += o.rungForks;
        goldenCycles += o.goldenCycles;
        siteCycles += o.siteCycles;
        planesCopied += o.planesCopied;
        return *this;
    }
};

/** Campaign parameters. */
struct EngineConfig
{
    /** Workload label recorded in checkpoints; a resumed campaign
     *  refuses a checkpoint written for a different label. */
    std::string workload;

    arch::GpuConfig gpu = arch::GpuConfig::testDefault();
    dmr::DmrConfig dmr = dmr::DmrConfig::paperDefault();
    /** Rollback-replay knobs; the default keeps recovery off. Only
     *  schemes with per-instruction detection support it
     *  (schemeSupportsRecovery) — Recovered is unreachable
     *  otherwise. */
    recovery::RecoveryConfig recovery;
    /** Protection backend under test. */
    protection::SchemeConfig scheme;
    SiteSpaceConfig space;

    std::uint64_t seed = 42;

    /** Sites to sample; 0 = derive from marginOfError via
     *  stats::sampleSizeForMargin against the space size. */
    std::uint64_t sites = 0;
    /** Target 95 % margin of error when sites == 0. */
    double marginOfError = 0.01;

    /** Stratified sampling: transient window buckets per unit (see
     *  fault::StratifiedSpace). 0 = uniform i.i.d. sampling. */
    unsigned strataWindows = 0;

    /** Worker threads (sim::RunPool semantics: 0 = hardware
     *  concurrency, 1 = sequential). The report is byte-identical
     *  for every value. */
    unsigned jobs = 1;

    /** Checkpoint state file; empty = no checkpointing. */
    std::string checkpointPath;
    /** Runs per fold-and-checkpoint chunk. */
    std::uint64_t checkpointEvery = 1000;
    /** Test hook: stop (with a checkpoint written) after this many
     *  chunks; 0 = run to completion. */
    std::uint64_t stopAfterChunks = 0;
};

class CampaignEngine
{
  public:
    /**
     * @param factory builds a fresh workload instance for the golden
     *        pass and for each resident machine pair
     * @param cfg     campaign parameters
     */
    CampaignEngine(WorkloadFactory factory, EngineConfig cfg);
    /** The resident machines hold references into the engine, so it
     *  is neither copied nor moved. */
    ~CampaignEngine();

    /**
     * Run the campaign (resuming from cfg.checkpointPath if the file
     * exists and matches) and return the final report. Also usable
     * for a partial run via EngineConfig::stopAfterChunks.
     *
     * @throws CheckpointError when cfg.checkpointPath exists but is
     *         torn or fails its integrity fingerprint (a *stale*
     *         checkpoint — config mismatch — is warned and ignored
     *         instead).
     */
    CampaignReport run();

    /**
     * Resolve the campaign plan without running any injections: the
     * golden reference run (capturing the snapshot ladder, and the
     * golden access log when the space has memory sites; with
     * recovery on, one more fault-free pass under the recovery
     * config captures both instead), the site space, the planned
     * sample size, the stratified sampler (under stratified
     * sampling) and the configuration signature. Idempotent; run()
     * and runRange() call it implicitly. Shard planners call it directly — every engine
     * derives the identical plan from the identical configuration,
     * and the signature proves it.
     */
    void prepare();

    /**
     * Classify campaign runs [base, base + count) and fold them — in
     * run-index order — into a fresh delta report (a skeleton() plus
     * exactly those runs). The site drawn for run i is a pure
     * function of (seed, i), so a shard's delta is independent of
     * which process runs it, and summing delta counters over any
     * disjoint cover of [0, plannedSites()) reproduces the
     * single-process report exactly.
     */
    CampaignReport runRange(std::uint64_t base, std::uint64_t count);

    /** A zero-run report carrying every configuration-derived field
     *  (space size, span, scheme, stratum sizes). */
    CampaignReport skeleton();

    /** The sampled site count the configuration resolves to (derived
     *  from marginOfError when sites == 0); valid after prepare(). */
    std::uint64_t plannedSites() const { return planned_; }

    /** Configuration signature checkpoints and shard deltas must
     *  match; valid after prepare(). */
    std::uint64_t signature() const { return signature_; }

    /** Golden-run cycle span; valid after prepare(). */
    std::uint64_t span() const { return span_; }

    /** The resolved site space; valid after prepare(). */
    const FaultSiteSpace &space() const { return *space_; }

    /** The golden pass's snapshot ladder and horizon table every
     *  injected run forks by; valid (and immutable) after prepare(). */
    const gpu::Ladder &ladder() const { return *ladder_; }

    /** The golden access log memory sites are settled from, over
     *  every word a memory site can strike; null when the space has
     *  no memory sites. Valid (and immutable) after prepare(). */
    const mem::MemAccessLog *accessLog() const { return accessLog_.get(); }

    /** What the last run() or runRange() simulated (zero before). */
    const ForkTelemetry &forkTelemetry() const { return telemetry_; }

  private:
    class Sweep;
    /** The resident machine pairs, zero telemetry. */
    Sweep &resetSweep();

    WorkloadFactory factory_;
    EngineConfig cfg_;
    std::uint64_t planned_ = 0;
    std::uint64_t signature_ = 0;
    std::uint64_t span_ = 0;
    std::optional<FaultSiteSpace> space_;
    std::optional<StratifiedSpace> strat_;
    std::shared_ptr<const gpu::Ladder> ladder_;
    std::shared_ptr<const mem::MemAccessLog> accessLog_;
    bool prepared_ = false;
    ForkTelemetry telemetry_;
    std::unique_ptr<Sweep> sweep_;
};

} // namespace fault
} // namespace warped

#endif // WARPED_FAULT_CAMPAIGN_ENGINE_HH
