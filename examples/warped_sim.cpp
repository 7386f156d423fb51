/**
 * @file
 * warped_sim: the command-line driver — run any Table-4 workload (or
 * all of them) under a chosen protection configuration and print the
 * full statistics block, or run a fault-injection campaign on one
 * (`campaign`). The "downstream user" front end.
 *
 *   $ ./warped_sim --help
 *   $ ./warped_sim MatrixMul --qsize 5 --mapping linear
 *   $ ./warped_sim all --dmr off
 *   $ ./warped_sim SHA --sampling 1000:250 --arbitrate --disasm
 *   $ ./warped_sim campaign SCAN --sites 500 --out report.json
 */

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <fstream>
#include <sstream>

#include "common/flags.hh"
#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "stats/accumulator.hh"
#include "gpu/report.hh"
#include "protection/scheme_registry.hh"
#include "trace/export.hh"
#include "trace/metrics.hh"
#include "isa/assembler.hh"
#include "power/power_model.hh"
#include "workloads/workload.hh"

using namespace warped;

namespace {

/** Run-mode settings; the machine starts as the paper's Table-3 GPU. */
struct Options
{
    std::string workload = "all";
    arch::GpuConfig gpu = arch::GpuConfig::paperDefault();
    dmr::DmrConfig dmr = dmr::DmrConfig::paperDefault();
    protection::SchemeConfig scheme;
    std::string kernelFile;
    unsigned kblocks = 4, kthreads = 128;
    bool disasm = false;
    bool verbose = false;
    bool report = false;
    bool json = false;
    bool list = false;
    std::string traceOut;
    std::string metricsOut;
};

/**
 * Output path for one workload's export: with a single workload the
 * given path is used verbatim; under "all" the workload name is
 * spliced in before the extension so runs don't clobber each other.
 */
std::string
exportPath(const std::string &base, const std::string &name, bool multi)
{
    if (!multi)
        return base;
    const auto dot = base.rfind('.');
    const auto slash = base.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + "." + name;
    return base.substr(0, dot) + "." + name + base.substr(dot);
}

/**
 * The machine and protection flags run mode and campaign mode
 * share. Each writes straight into the configuration it names, so the
 * defaults shown are the mode's own (30 SMs for a run, 4 for a
 * campaign).
 */
void
addMachineFlags(cli::FlagTable &t, arch::GpuConfig &gpu,
                dmr::DmrConfig &dmr, protection::SchemeConfig &scheme)
{
    t.section("machine and protection options:");
    t.choice("--dmr", {"on", "off"},
             [&dmr](std::size_t i) {
                 if (i == 1)
                     dmr = dmr::DmrConfig::off();
             },
             "enable/disable Warped-DMR", "on");
    t.action("--no-intra", [&dmr] { dmr.intraWarp = false; },
             "disable intra-warp (spatial) DMR");
    t.action("--no-inter", [&dmr] { dmr.interWarp = false; },
             "disable inter-warp (temporal) DMR");
    t.action("--no-shuffle", [&dmr] { dmr.laneShuffle = false; },
             "disable lane shuffling");
    t.choice("--mapping", dmr.mapping,
             {{"linear", dmr::MappingPolicy::Linear},
              {"cross", dmr::MappingPolicy::CrossCluster}},
             "thread-to-core mapping");
    t.integer("--qsize", dmr.replayQSize, "ReplayQ entries");
    t.integer("--sms", gpu.numSms, "streaming multiprocessors");
    t.choice("--sched", gpu.schedPolicy,
             {{"lrr", arch::SchedPolicy::LooseRoundRobin},
              {"gto", arch::SchedPolicy::GreedyThenOldest}},
             "warp scheduling policy");
    t.integer("--schedulers", gpu.numSchedulers, "schedulers per SM");
    t.choice("--mem-model", gpu.memModel,
             {{"flat", arch::MemModel::Flat},
              {"banked", arch::MemModel::Banked}},
             "global memory; banked adds per-bank open-row DRAM timing");
    t.choice("--ecc", gpu.eccKind,
             {{"none", arch::EccKind::None},
              {"secded", arch::EccKind::Secded},
              {"chipkill", arch::EccKind::Chipkill}},
             "memory ECC codec (only fault campaigns inject upsets)");
    std::vector<std::pair<std::string, protection::SchemeId>> schemes;
    for (const auto id : protection::allSchemes())
        schemes.emplace_back(protection::schemeCliName(id), id);
    t.choice("--scheme", scheme.id, schemes, "protection backend");
    t.real("--protect-frac", scheme.protectFraction,
           "protected warp-slot fraction for --scheme partial-thread", 0.0,
           1.0);
}

/** The simulator's own machine check, run once right after parsing so
 *  a nonsensical machine is a usage error, not an abort. Returns the
 *  complaint, empty when the machine is buildable. */
std::string
machineError(const arch::GpuConfig &gpu, const dmr::DmrConfig &dmr)
{
    try {
        gpu.validate();
        dmr.validate();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

/**
 * Everything the `campaign` subcommand parses: the engine
 * configuration the flags write into, plus the knobs that finalize
 * into it.
 */
struct CampaignCli
{
    std::string workload;
    fault::EngineConfig ec;
    unsigned size = 0;
    bool sweep = false;
    std::string outPath;

    CampaignCli()
    {
        ec.gpu.numSms = 4;
        ec.jobs = 0;
    }

    fault::WorkloadFactory
    factory() const
    {
        return [w = workload, s = size] {
            return workloads::makeByNameSized(w, s);
        };
    }
};

/** The campaign-level flags: site axes, then state and output files. */
void
addCampaignFlags(cli::FlagTable &t, CampaignCli &c)
{
    auto &ec = c.ec;
    t.positional("<workload>", c.workload, "workload to inject into",
                 workloads::allNames());
    t.section("campaign options:");
    t.integer("--size", c.size, "workload size parameter (factory-specific)")
        .withDefault("paper scale");
    t.integer("--sites", ec.sites, "fault sites to sample")
        .withDefault("derived from --moe");
    t.real("--moe", ec.marginOfError,
           "target 95% margin of error when --sites is absent");
    t.custom("--kinds", "K[,K...]",
             [&ec](const std::string &v) -> std::string {
                 using K = fault::FaultKind;
                 const std::map<std::string, K> names = {
                     {"transient", K::TransientBitFlip},
                     {"stuck0", K::StuckAtZero},
                     {"stuck1", K::StuckAtOne}};
                 ec.space.kinds.clear();
                 std::stringstream ss(v);
                 for (std::string k; std::getline(ss, k, ',');) {
                     if (!names.count(k))
                         return "expects transient, stuck0, stuck1";
                     ec.space.kinds.push_back(names.at(k));
                 }
                 return ec.space.kinds.empty() ? "expects a kind" : "";
             },
             "fault kinds to sample: transient, stuck0, stuck1 "
             "(default all)");
    t.choice("--unit", ec.space.units,
             {{"any", {std::nullopt}}, {"sp", {isa::UnitType::SP}},
              {"sfu", {isa::UnitType::SFU}},
              {"ldst", {isa::UnitType::LDST}}},
             "unit axis of the site space");
    t.integer("--windows", ec.space.cycleWindows, "transient pulse windows")
        .withDefault("one per cycle, capped at 4096");
    t.choice("--fault-domain", {"exec", "mem", "both"},
             [&ec](std::size_t i) {
                 ec.space.execEnabled = i != 1;
                 ec.space.memEnabled = i != 0;
             },
             "execution-lane sites, memory-cell sites over the workload "
             "footprint (ECC-filtered; docs/FAULT_MODEL.md), or both",
             "exec");
    t.integer("--strata", ec.strataWindows,
              "stratified sampling over N window buckets per unit; "
              "reports add a weighted estimate with per-stratum CIs", 1)
        .withDefault("uniform i.i.d. sampling");
    t.integer("--seed", ec.seed, "campaign master seed");
    t.integer("--jobs", ec.jobs, "worker threads (0 = hardware "
              "concurrency; output identical for every N)");
    t.flag("--recovery", ec.recovery.enabled,
           "rollback-replay recovery (repaired runs classify Recovered)");
    t.integer("--recovery-budget", ec.recovery.retryBudget,
              "rollbacks per incident window (implies --recovery)");
    t.integer("--recovery-ring", ec.recovery.ringCapacity,
              "checkpoint deltas retained per SM (implies --recovery)");
    t.integer("--recovery-penalty", ec.recovery.rollbackPenalty,
              "stall cycles after a rollback (implies --recovery)");
    t.section("state and output options:");
    t.text("--checkpoint", ec.checkpointPath, "F",
           "periodic JSON state file; a matching one resumes");
    t.integer("--checkpoint-every", ec.checkpointEvery,
              "runs per checkpoint chunk", 1);
    t.text("--out", c.outPath, "F", "write the report JSON to F");
    addMachineFlags(t, ec.gpu, ec.dmr, ec.scheme);
}

/** Crash-atomic text file write: tmp + rename, the same discipline
 *  as the engine's checkpoints. */
bool
writeTextAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp);
        if (!f)
            return false;
        f << text;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void
printCampaignHeader(const CampaignCli &c)
{
    std::printf("campaign: %s (size %s), seed %llu, machine: %s\n",
                c.workload.c_str(),
                c.size ? std::to_string(c.size).c_str() : "default",
                static_cast<unsigned long long>(c.ec.seed),
                c.ec.gpu.toString().c_str());
    if (c.ec.recovery.enabled)
        std::printf("  %s\n", c.ec.recovery.toString().c_str());
    if (!c.sweep && c.ec.scheme.id != protection::SchemeId::WarpedDmr)
        std::printf("  scheme: %s\n",
                    protection::schemeDisplayName(c.ec.scheme.id));
    if (c.ec.strataWindows)
        std::printf("  stratified sampling: %u window buckets per "
                    "unit\n",
                    c.ec.strataWindows);
    if (c.ec.space.memEnabled) {
        std::printf("  fault domain: %s\n",
                    c.ec.space.execEnabled ? "both" : "mem");
        if (!protection::schemeCoversMemory(c.ec.scheme.id))
            std::printf("  note: scheme %s cannot observe "
                        "memory-data faults; ECC (%s) is the only "
                        "memory-side protection\n",
                        protection::schemeDisplayName(c.ec.scheme.id),
                        arch::eccKindName(c.ec.gpu.eccKind));
    }
}

/**
 * `campaign <workload> --scheme-sweep`: one self-contained campaign
 * per protection backend over the SAME site axes (kinds, units,
 * windows, seed, sample count), merged into a single metrics JSON
 * under `sweep.<scheme>.*` keys plus a printed Pareto table.
 *
 * Each backend's golden run executes UNDER that backend, so its span
 * already contains the scheme's stall/replay cycles: the overhead
 * column is span / Original-span - 1, the Fig-10 x-axis, while the
 * coverage column (with its Wilson CI) is the y-axis. Original runs
 * first to anchor the baseline.
 */
int
schemeSweep(const CampaignCli &c)
{
    std::vector<std::pair<protection::SchemeId, fault::CampaignReport>> runs;
    for (const auto id : protection::allSchemes()) {
        fault::EngineConfig ec = c.ec;
        ec.scheme.id = id;
        if (id != protection::SchemeId::PartialThread)
            ec.scheme.protectFraction = 1.0;
        // Per-scheme campaigns are self-contained; a shared
        // checkpoint file would clobber across backends.
        ec.checkpointPath.clear();
        if (ec.recovery.enabled &&
            !protection::schemeSupportsRecovery(id)) {
            std::printf("  (recovery disabled for %s: no "
                        "per-instruction detection)\n",
                        protection::schemeDisplayName(id));
            ec.recovery = {};
        }
        std::printf("sweep: %s ...\n",
                    protection::schemeDisplayName(id));
        std::fflush(stdout);
        runs.emplace_back(id, fault::CampaignEngine(c.factory(), ec).run());
    }

    // Enum order runs Original first: its span anchors the overhead.
    const std::uint64_t baseSpan = runs.front().second.span;
    trace::MetricsRegistry merged;
    std::printf("\n%-16s %9s  %-18s %9s  %9s %9s %7s %7s\n",
                "scheme", "coverage", "Wilson 95% CI", "overhead",
                "span", "sampled", "SDC", "DUE");
    for (const auto &[id, rep] : runs) {
        const auto &o = rep.overall;
        const auto ci = o.coverageCi();
        const double overhead =
            baseSpan ? double(rep.span) / double(baseSpan) - 1.0 : 0.0;
        std::printf("%-16s %8.2f%%  [%6.2f, %6.2f]   %+8.2f%%  "
                    "%9llu %9llu %7llu %7llu\n",
                    protection::schemeDisplayName(id), 100 * o.coverage(),
                    100 * ci.lo, 100 * ci.hi, 100 * overhead,
                    static_cast<unsigned long long>(rep.span),
                    static_cast<unsigned long long>(rep.sampled),
                    static_cast<unsigned long long>(o.sdc),
                    static_cast<unsigned long long>(o.due));
        const std::string k =
            std::string("sweep.") + protection::schemeCliName(id);
        merged.counter(k + ".span") = rep.span;
        merged.counter(k + ".sampled") = rep.sampled;
        merged.counter(k + ".detected") = o.detected + o.recovered;
        merged.counter(k + ".sdc") = o.sdc;
        merged.counter(k + ".due") = o.due;
        merged.counter(k + ".masked") = o.masked;
        merged.gauge(k + ".coverage") = o.coverage();
        merged.gauge(k + ".coverage.wilson_lo") = ci.lo;
        merged.gauge(k + ".coverage.wilson_hi") = ci.hi;
        merged.gauge(k + ".overhead") = overhead;
    }

    if (!c.outPath.empty()) {
        std::ofstream f(c.outPath);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", c.outPath.c_str());
            return 1;
        }
        f << merged.toJson();
        std::printf("\nsweep JSON written to %s\n", c.outPath.c_str());
    }
    return 0;
}

/** The human-readable statistics block of `campaign`: everything
 *  derives from the mergeable counters in the report. */
void
printCampaignReport(const fault::CampaignReport &rep)
{
    const auto &o = rep.overall;
    std::printf("\nsite space: %llu sites, sampled %llu "
                "(golden span %llu cycles)\n",
                static_cast<unsigned long long>(rep.spaceSize),
                static_cast<unsigned long long>(rep.sampled),
                static_cast<unsigned long long>(rep.span));
    const auto frac = [&](std::uint64_t n) {
        return o.total() ? 100.0 * double(n) / double(o.total())
                         : 0.0;
    };
    std::printf("  masked:    %8llu  (%5.2f%%, %llu never "
                "activated)\n",
                static_cast<unsigned long long>(o.masked),
                frac(o.masked),
                static_cast<unsigned long long>(o.notActivated));
    std::printf("  detected:  %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.detected),
                frac(o.detected));
    std::printf("  recovered: %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.recovered),
                frac(o.recovered));
    std::printf("  ecc-fixed: %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.eccCorrected),
                frac(o.eccCorrected));
    std::printf("  SDC:       %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.sdc), frac(o.sdc));
    std::printf("  DUE:       %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.due), frac(o.due));

    const auto cov = o.coverageCi();
    const auto det = o.detectionCi();
    std::printf("\ncoverage (detected / sampled):        %6.2f%%  "
                "Wilson 95%% CI [%5.2f, %5.2f]\n",
                100 * o.coverage(), 100 * cov.lo, 100 * cov.hi);
    std::printf("detection rate (of non-masked):       %6.2f%%  "
                "Wilson 95%% CI [%5.2f, %5.2f]\n",
                100 * o.detectionRate(), 100 * det.lo, 100 * det.hi);
    if (rep.latencyCount)
        std::printf("mean detection latency: %.1f cycles over %llu "
                    "detections (kernel length %.0f)\n",
                    rep.meanDetectionLatency(),
                    static_cast<unsigned long long>(rep.latencyCount),
                    double(rep.kernelLengthSum) /
                        double(rep.latencyCount));
    const auto alarmed = o.detected + o.recovered;
    std::printf("recovered fraction (of detections):   %6.2f%%  "
                "(%llu rollbacks, %llu give-ups)\n",
                alarmed ? 100.0 * double(o.recovered) / double(alarmed)
                        : 0.0,
                static_cast<unsigned long long>(rep.rollbacks),
                static_cast<unsigned long long>(rep.giveUps));
    if (rep.recoveryCount)
        std::printf("mean recovery latency: %.1f cycles over %llu "
                    "recoveries\n",
                    rep.meanRecoveryCycles(),
                    static_cast<unsigned long long>(rep.recoveryCount));
    if (rep.abortedRuns)
        std::printf("aborted runs (a panic before any machine check), "
                    "classified as DUE: %llu\n",
                    static_cast<unsigned long long>(rep.abortedRuns));

    if (!rep.byKind.empty()) {
        std::printf("\nper-kind coverage:\n");
        for (const auto &[kind, c] : rep.byKind) {
            const auto ci = c.coverageCi();
            std::printf("  %-18s %6.2f%%  [%5.2f, %5.2f]  "
                        "(%llu sampled)\n",
                        faultKindName(kind), 100 * c.coverage(),
                        100 * ci.lo, 100 * ci.hi,
                        static_cast<unsigned long long>(c.total()));
        }
    }

    const auto escaped = o.sdc + o.due;
    const auto esc = stats::wilsonInterval(escaped, o.total());
    std::printf("\nescaped ECC and DMR (SDC+DUE):        %6.2f%%"
                "  Wilson 95%% CI [%5.2f, %5.2f]\n",
                frac(escaped), 100 * esc.lo, 100 * esc.hi);
    if (!rep.byMemKind.empty()) {
        std::printf("\nper-memory-kind outcomes (ecc-fixed / escaped):\n");
        for (const auto &[kind, c] : rep.byMemKind) {
            const auto kt = c.total();
            const auto kfrac = [&](std::uint64_t n) {
                return kt ? 100.0 * double(n) / double(kt) : 0.0;
            };
            std::printf("  %-18s %6.2f%% / %6.2f%%  (%llu sampled)\n",
                        mem::memFaultKindSlug(kind), kfrac(c.eccCorrected),
                        kfrac(c.sdc + c.due),
                        static_cast<unsigned long long>(kt));
        }
    }

    if (!rep.stratumSizes.empty()) {
        const auto est = rep.stratifiedCoverage();
        const auto ci = est.interval();
        const auto pooled = est.pooledWilson();
        std::printf("\nstratified coverage estimate:         %6.2f%%"
                    "  95%% CI [%5.2f, %5.2f]\n",
                    100 * est.estimate(), 100 * ci.lo, 100 * ci.hi);
        std::printf("  (%llu strata over %llu sites; pooled Wilson "
                    "width %.3f vs stratified %.3f)\n",
                    static_cast<unsigned long long>(
                        rep.stratumSizes.size()),
                    static_cast<unsigned long long>(est.population()),
                    pooled.hi - pooled.lo, ci.hi - ci.lo);
    }
}

/** Write the mergeable flat-counter report JSON, crash-atomically —
 *  a torn report file is as useless as a torn checkpoint. */
int
writeReportJson(const fault::CampaignReport &rep,
                const std::string &outPath)
{
    if (outPath.empty())
        return 0;
    if (!writeTextAtomic(outPath, rep.toJson())) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("\nreport JSON written to %s\n", outPath.c_str());
    return 0;
}

int
campaignMain(int argc, char **argv)
{
    CampaignCli c;
    cli::FlagTable t(
        "warped_sim", "campaign <workload> [options]",
        "Sample fault sites (SM x lane x bit x window x kind), classify\n"
        "each injected run as Masked/Detected/SDC/DUE against the golden\n"
        "run, and report coverage with Wilson 95% CIs\n"
        "(docs/FAULT_MODEL.md).\n");
    addCampaignFlags(t, c);
    t.section("sweep:");
    t.flag("--scheme-sweep", c.sweep,
           "run once per protection backend over the same sites; emit "
           "merged sweep.<scheme>.* JSON and a coverage/overhead table");
    if (const auto rc = t.parseOrUsage(argc, argv, 2))
        return *rc;
    for (const char *f :
         {"--recovery-budget", "--recovery-ring", "--recovery-penalty"})
        if (t.seen(f))
            c.ec.recovery.enabled = true;
    c.ec.workload = c.workload;
    if (const auto err = machineError(c.ec.gpu, c.ec.dmr); !err.empty())
        return t.fail(err);
    printCampaignHeader(c);

    if (c.sweep)
        return schemeSweep(c);

    fault::CampaignEngine engine(c.factory(), c.ec);
    fault::CampaignReport rep;
    try {
        rep = engine.run();
    } catch (const fault::CheckpointError &e) {
        std::fprintf(stderr,
                     "campaign: checkpoint %s is unusable: %s\n"
                     "  (delete it to restart from scratch, or "
                     "restore an intact copy)\n",
                     c.ec.checkpointPath.c_str(), e.what());
        return 1;
    }
    printCampaignReport(rep);
    // Fork telemetry depends on --jobs, so it stays out of the report.
    const auto &ft = engine.forkTelemetry();
    const auto perSite = [&ft](std::uint64_t n) {
        return ft.sitesSimulated ? double(n) / double(ft.sitesSimulated)
                                 : 0.0;
    };
    std::fprintf(stderr,
                 "fork: %llu sites simulated (%llu forked from the sweep, "
                 "%llu from a rung), %llu golden cycles advanced, %llu "
                 "site cycles simulated (%.1f per site), %llu register "
                 "planes copied (%.1f per site); settled %llu by "
                 "the activity oracle, %llu not read, %llu corrected, "
                 "%llu machine check\n",
                 static_cast<unsigned long long>(ft.sitesSimulated),
                 static_cast<unsigned long long>(ft.sweepForks),
                 static_cast<unsigned long long>(ft.rungForks),
                 static_cast<unsigned long long>(ft.goldenCycles),
                 static_cast<unsigned long long>(ft.siteCycles),
                 perSite(ft.siteCycles),
                 static_cast<unsigned long long>(ft.planesCopied),
                 perSite(ft.planesCopied),
                 static_cast<unsigned long long>(ft.settledOracle),
                 static_cast<unsigned long long>(ft.settledNotRead),
                 static_cast<unsigned long long>(ft.settledCorrected),
                 static_cast<unsigned long long>(ft.settledMachineCheck));
    return writeReportJson(rep, c.outPath);
}

/** The run-mode flag table, writing into @p o. */
void
addRunFlags(cli::FlagTable &t, Options &o)
{
    auto names = workloads::allNames();
    names.push_back("all");
    t.positional("<workload>", o.workload, "workload to run", names);
    addMachineFlags(t, o.gpu, o.dmr, o.scheme);
    t.integer("--cluster", o.gpu.lanesPerCluster, "SIMT-cluster width");
    t.integer("--warp", o.gpu.warpSize, "warp width");
    t.custom("--sampling", "E:A",
             [&o](const std::string &v) -> std::string {
                 const auto colon = v.find(':');
                 const auto e = cli::parseUint(v.substr(0, colon), ~0u);
                 const auto a = colon == std::string::npos
                                    ? std::nullopt
                                    : cli::parseUint(v.substr(colon + 1), ~0u);
                 if (!e || !a)
                     return "expects E:A";
                 o.dmr.samplingEpoch = *e;
                 o.dmr.samplingActive = *a;
                 return {};
             },
             "sampling DMR: active A of every E cycles");
    t.flag("--bank-conflicts", o.gpu.modelBankConflicts,
           "model register-bank conflicts");
    t.flag("--coalescing", o.gpu.modelCoalescing,
           "model global-memory coalescing");
    t.flag("--contention", o.gpu.modelMemContention,
           "model memory-partition contention");
    t.action("--arbitrate", [&o] { o.dmr.arbitrateErrors = true; },
             "classify detections by majority vote");
    t.action("--dmtr", [&o] { o.dmr = dmr::DmrConfig::dmtr(); },
             "DMTR baseline mode");
    t.section("output options:");
    t.flag("--disasm", o.disasm, "print the kernel disassembly");
    t.integer("--trace", o.gpu.traceIssueLimit,
              "print the first N issue events");
    t.text("--trace-out", o.traceOut, "F",
           "write Chrome trace JSON to F");
    t.text("--metrics-out", o.metricsOut, "F",
           "write the flat metrics JSON to F (under 'all', per workload)");
    t.flag("--report", o.report, "print the full statistics block");
    t.flag("--json", o.json, "emit one JSON object per workload");
    t.flag("--verbose", o.verbose, "keep warn/info output");
    t.flag("--list", o.list, "print the workload table and exit");
    t.text("--kernel", o.kernelFile, "F",
           "run a text-assembly kernel file instead of a workload");
    t.integer("--blocks", o.kblocks, "--kernel grid blocks");
    t.integer("--threads", o.kthreads, "--kernel threads per block");
}

int
runOne(const std::string &name, const Options &o,
       const arch::GpuConfig &cfg)
{
    auto w = workloads::makeByName(name);
    gpu::Gpu g(cfg, o.dmr, /*seed=*/1, nullptr, {}, o.scheme);
    w->setup(g);
    if (o.disasm)
        std::printf("%s\n", w->program().disassemble().c_str());

    const auto r = g.launch(w->program(), w->gridBlocks(),
                            w->blockThreads());
    const bool ok = w->verify(g);

    const bool multi = o.workload == "all";
    if (!o.traceOut.empty()) {
        const auto path = exportPath(o.traceOut, name, multi);
        std::ofstream f(path);
        if (!f)
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
        else
            trace::writeChromeTrace(f, r.events, name);
    }
    if (!o.metricsOut.empty()) {
        const auto path = exportPath(o.metricsOut, name, multi);
        std::ofstream f(path);
        if (!f)
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
        else
            trace::writeMetricsJson(f, r.metrics);
    }

    if (o.json) {
        std::printf("%s\n",
                    report::jsonReport(r, cfg, name).c_str());
        return ok ? 0 : 1;
    }

    if (cfg.traceIssueLimit) {
        std::printf("issue trace (first %u issue events):\n",
                    cfg.traceIssueLimit);
        unsigned shown = 0;
        for (const auto &ev : r.trace) {
            if (shown++ >= cfg.traceIssueLimit)
                break;
            std::printf("  cy %6llu sm%-2u w%-2u [%2u/%u] pc %3u  %s\n",
                        static_cast<unsigned long long>(ev.cycle),
                        ev.sm, ev.warp, ev.activeCount, cfg.warpSize,
                        ev.pc, ev.instr.toString().c_str());
        }
    }

    if (o.report)
        std::printf("%s", report::textReport(r, cfg).c_str());

    power::PowerModel pm(cfg);
    std::printf("%-12s %-16s %8llu cy %8.1f us  cover %6.2f%%  "
                "power %5.1f W  %s\n",
                name.c_str(), w->category().c_str(),
                static_cast<unsigned long long>(r.cycles),
                r.timeNs / 1e3, 100 * r.coverage(),
                pm.estimate(r).total(), ok ? "OK" : "FAIL");

    if (o.dmr.enabled) {
        std::printf(
            "    verified: intra %llu / inter %llu thread-instrs; "
            "stalls: eager %llu, raw %llu; queue events: enq %llu, "
            "deq %llu, drain %llu+%llu\n",
            static_cast<unsigned long long>(r.dmr.intraVerifiedThreads),
            static_cast<unsigned long long>(r.dmr.interVerifiedThreads),
            static_cast<unsigned long long>(r.dmr.eagerStalls),
            static_cast<unsigned long long>(r.dmr.rawStalls),
            static_cast<unsigned long long>(r.dmr.enqueues),
            static_cast<unsigned long long>(r.dmr.dequeueVerifications),
            static_cast<unsigned long long>(
                r.dmr.idleDrainVerifications),
            static_cast<unsigned long long>(
                r.dmr.unitDrainVerifications));
        if (r.dmr.errorsDetected) {
            std::printf("    ERRORS DETECTED: %llu",
                        static_cast<unsigned long long>(
                            r.dmr.errorsDetected));
            if (o.dmr.arbitrateErrors) {
                std::printf(" (primary-bad %llu, checker-bad %llu, "
                            "inconclusive %llu)",
                            static_cast<unsigned long long>(
                                r.dmr.arbPrimaryBad),
                            static_cast<unsigned long long>(
                                r.dmr.arbCheckerBad),
                            static_cast<unsigned long long>(
                                r.dmr.arbInconclusive));
            }
            std::printf("\n");
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    static const std::pair<std::string_view, int (*)(int, char **)>
        modes[] = {{"campaign", campaignMain}};
    for (const auto &[name, mode] : modes) {
        if (argc > 1 && argv[1] == name)
            return mode(argc, argv);
    }

    Options o;
    cli::FlagTable t(
        "warped_sim",
        "[workload|all] [options]\n"
        "campaign <workload> [options]   (fault-injection "
        "campaigns; see `warped_sim campaign --help`)",
        "Run Table-4 workloads on the simulated GPU under a chosen\n"
        "protection configuration and print their statistics.\n");
    addRunFlags(t, o);
    if (const auto rc = t.parseOrUsage(argc, argv))
        return *rc;
    setVerbose(o.verbose);
    if (const auto err = machineError(o.gpu, o.dmr); !err.empty())
        return t.fail(err);
    if (o.list) {
        std::printf("%-12s %-26s %8s %8s %10s %10s\n", "name", "category",
                    "blocks", "threads", "bytes in", "bytes out");
        for (const auto &n : workloads::allNames()) {
            auto w = workloads::makeByName(n);
            gpu::Gpu g(arch::GpuConfig::testDefault(),
                       dmr::DmrConfig::off());
            w->setup(g);
            std::printf("%-12s %-26s %8u %8u %10zu %10zu\n", n.c_str(),
                        w->category().c_str(), w->gridBlocks(),
                        w->blockThreads(), w->bytesIn(), w->bytesOut());
        }
        return 0;
    }

    auto cfg = o.gpu;
    cfg.traceEvents = !o.traceOut.empty();
    std::printf("%s\n", cfg.toString().c_str());

    if (!o.kernelFile.empty()) {
        std::ifstream f(o.kernelFile);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         o.kernelFile.c_str());
            return 1;
        }
        std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
        isa::Program prog;
        try {
            prog = isa::parseProgram(text);
        } catch (const std::runtime_error &) {
            return 1; // the assembler has printed the complaint
        }
        if (o.disasm)
            std::printf("%s\n", prog.disassemble().c_str());
        gpu::Gpu g(cfg, o.dmr, /*seed=*/1, nullptr, {}, o.scheme);
        const auto r = g.launch(prog, o.kblocks, o.kthreads);
        if (o.json) {
            std::printf("%s\n",
                        report::jsonReport(r, cfg, prog.name()).c_str());
        } else {
            std::printf("%s", report::textReport(r, cfg).c_str());
        }
        return 0;
    }

    int rc = 0;
    if (o.workload == "all") {
        for (const auto &n : workloads::allNames())
            rc |= runOne(n, o, cfg);
    } else {
        rc = runOne(o.workload, o, cfg);
    }
    return rc;
}
