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
 *                  control flow and the watchdog ended the run, or
 *                  the run tripped a simulator sanity panic twice
 *                  (see the hang-DUE retry in the engine).
 *
 * The resulting CampaignReport carries per-kind and per-unit outcome
 * breakdowns, Wilson-score confidence intervals, detection-latency
 * histograms, and a flat JSON rendering through trace::MetricsRegistry
 * (sorted keys, fixed precision — byte-identical across `--jobs`
 * values and safe to diff).
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

/** Recovery-oblivious overload (recovered_clean = false). */
OutcomeClass classifyOutcome(bool activated, bool detected, bool hung,
                             bool output_ok);

/**
 * Classify one finished *memory-site* run (the ECC-side taxonomy).
 *
 * @param activated        the upset word was read at least once
 * @param ecc_uncorrectable the codec flagged a detected-but-
 *        uncorrectable read — a memory DUE, regardless of output
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

    /** Whether the site space included the memory-cell block — gates
     *  the ECC/escape gauges in toMetrics so exec-only reports stay
     *  byte-identical to pre-memory ones. */
    bool memEnabled = false;

    /** Window buckets of the stratified sampler (0 = uniform
     *  sampling). Gates every stratum key in toMetrics, so
     *  non-stratified reports stay byte-identical to pre-strata
     *  ones. */
    unsigned strataWindows = 0;
    /** Per-stratum outcome tallies, keyed by StratifiedSpace labels
     *  ("any.w03", "sp.perm", "mem.w01", ...). */
    std::map<std::string, OutcomeCounts> byStratum;
    /** Stratum population sizes N_h — the weights of the stratified
     *  estimator; filled for every stratum, sampled or not. */
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

    /** Whether EngineConfig::recovery was enabled — gates the
     *  recovery gauges in toMetrics so recovery-off reports stay
     *  byte-identical to pre-recovery ones. */
    bool recoveryEnabled = false;

    /** The protection backend the campaign ran against. Non-default
     *  schemes are recorded in toMetrics; the default (Warped-DMR)
     *  emits nothing extra, keeping reports byte-identical to
     *  pre-seam ones. */
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

    /** Runs that tripped a simulator sanity panic twice and were
     *  force-classified as hang-DUE (see the engine's retry). */
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

    /**
     * Flat metrics rendering: campaign.* counters and gauges in a
     * trace::MetricsRegistry (sorted keys, fixed precision).
     */
    trace::MetricsRegistry toMetrics() const;

    /** toMetrics() rendered as the registry's JSON document. */
    std::string toJson() const;
};

/**
 * Rebuild every counter-derived field of @p rep from a flat counter
 * map (the inverse of toMetrics' counter emission). Keys absent from
 * @p kv leave the corresponding field untouched, so callers seed
 * @p rep with a configuration skeleton first. The breakdown labels
 * (kinds, units, memory kinds, strata) are discovered by scanning the
 * key set — no configuration needed. Shared by the checkpoint loader
 * and the shard aggregator; gauges are never restored (they are
 * derived, and toMetrics recomputes them exactly).
 */
void
restoreReportCounters(const std::map<std::string, std::uint64_t> &kv,
                      CampaignReport &rep);

/** Workload factory: a fresh instance per run (runs execute
 *  concurrently). */
using WorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>()>;

/** Campaign parameters. */
struct EngineConfig
{
    /** Workload label recorded in checkpoints; a resumed campaign
     *  refuses a checkpoint written for a different label. */
    std::string workload;

    arch::GpuConfig gpu = arch::GpuConfig::testDefault();
    dmr::DmrConfig dmr = dmr::DmrConfig::paperDefault();
    /** Rollback-replay knobs; the default keeps recovery off, so the
     *  report (and any checkpoint signature) is byte-identical to a
     *  pre-recovery campaign. Only schemes with per-instruction
     *  detection support it (schemeSupportsRecovery) — Recovered is
     *  unreachable otherwise. */
    recovery::RecoveryConfig recovery;
    /** Protection backend under test; the default (Warped-DMR)
     *  leaves reports and checkpoint signatures byte-identical to
     *  pre-seam campaigns. */
    protection::SchemeConfig scheme;
    SiteSpaceConfig space;

    std::uint64_t seed = 42;

    /** Sites to sample; 0 = derive from marginOfError via
     *  stats::sampleSizeForMargin against the space size. */
    std::uint64_t sites = 0;
    /** Target 95 % margin of error when sites == 0. */
    double marginOfError = 0.01;

    /** Stratified sampling: transient window buckets per unit (see
     *  fault::StratifiedSpace). 0 = uniform i.i.d. sampling — the
     *  pre-strata behaviour, byte-identical reports and checkpoint
     *  signatures. */
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
     * @param factory builds a fresh workload instance per run
     * @param cfg     campaign parameters
     */
    CampaignEngine(WorkloadFactory factory, EngineConfig cfg);

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
     * golden reference run, the site space, the planned sample size,
     * the stratified sampler (when cfg.strataWindows > 0) and the
     * configuration signature. Idempotent; run() and runRange() call
     * it implicitly. Workers and the shard orchestrator call it
     * directly — each process derives the identical plan from the
     * identical configuration, and the signature proves it.
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
     *  (space size, span, gating flags, stratum sizes). */
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

  private:
    WorkloadFactory factory_;
    EngineConfig cfg_;
    std::uint64_t planned_ = 0;
    std::uint64_t signature_ = 0;
    std::uint64_t span_ = 0;
    std::optional<FaultSiteSpace> space_;
    std::optional<StratifiedSpace> strat_;
    bool prepared_ = false;
};

} // namespace fault
} // namespace warped

#endif // WARPED_FAULT_CAMPAIGN_ENGINE_HH
