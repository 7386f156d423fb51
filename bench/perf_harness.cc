/**
 * @file
 * Simulator-throughput microbenchmark: runs a pinned set of reference
 * configurations (MatrixMul / BFS / Scan on 4 SMs, fixed seeds, DMR
 * on and off, plus the fault-campaign reference mix) single-threaded
 * and reports throughput through a trace::MetricsRegistry.
 *
 * Output contract (relied on by perf_compare and the perf_smoke
 * ctest):
 *  - counters (`perf.<config>.cycles`, `.instructions`, `.launches`)
 *    depend only on the simulation seeds and are byte-identical
 *    across runs and machines — any drift means simulator behavior
 *    changed, not just speed;
 *  - gauges (`perf.<config>.wall_ms`, `.cycles_per_sec`,
 *    `.instr_per_sec`, `perf.peak_rss_mb`) carry wall-clock-derived
 *    values and differ run to run.
 *
 * `--self-check` runs the suite twice and fails unless the
 * deterministic half of the registry is identical — the
 * determinism gate behind the perf_smoke ctest target.
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "arch/gpu_config.hh"
#include "common/logging.hh"
#include "dmr/dmr_config.hh"
#include "gpu/gpu.hh"
#include "protection/scheme_registry.hh"
#include "recovery/recovery_config.hh"
#include "trace/metrics.hh"
#include "workloads/workload.hh"

using namespace warped;

namespace {

using WorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>()>;

/** One pinned measurement configuration. */
struct PerfConfig
{
    const char *name;
    std::vector<WorkloadFactory> factories; ///< run back to back
    dmr::DmrConfig dmr;
    recovery::RecoveryConfig recovery; ///< default: disabled
    protection::SchemeConfig scheme;   ///< default: Warped-DMR
    /** Memory-hierarchy knobs; the flat/no-ECC default keeps every
     *  pre-existing config on the exact pre-banked machine. */
    arch::MemModel memModel = arch::MemModel::Flat;
    arch::EccKind ecc = arch::EccKind::None;
};

/** The config's machine: the reference GPU plus its memory knobs. */
arch::GpuConfig
configGpu(const arch::GpuConfig &base, const PerfConfig &cfg)
{
    auto gpu = base;
    gpu.memModel = cfg.memModel;
    gpu.eccKind = cfg.ecc;
    return gpu;
}

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: perf_harness [--out FILE] [--repeat N] [--smoke] "
        "[--self-check] [--recovery-noop-check]\n"
        "  --out FILE    write the metrics JSON here "
        "(default BENCH_PR4.json)\n"
        "  --repeat N    measure N back-to-back repetitions per "
        "config (default 1)\n"
        "  --smoke       tiny workload instances (CI smoke variant)\n"
        "  --self-check  run the suite twice; exit 1 unless the\n"
        "                deterministic counters match exactly\n"
        "  --recovery-noop-check\n"
        "                skip measurement; exit 1 unless runs with\n"
        "                recovery disabled are metric-identical to\n"
        "                plain baseline runs (byte-identity gate)\n");
    std::exit(code);
}

/** Strict numeric flag parse: full-string, in-range, or usage+exit 2. */
unsigned
parseUnsignedArg(const char *flag, const char *text)
{
    if (!text || !*text)
        usage(2);
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || v > 0xFFFFFFFFul) {
        std::fprintf(stderr, "perf_harness: bad value '%s' for %s\n",
                     text, flag);
        usage(2);
    }
    return static_cast<unsigned>(v);
}

/** The campaign machine: 4 SMs of the short-latency test GPU. */
arch::GpuConfig
referenceGpu()
{
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 4;
    return cfg;
}

std::vector<PerfConfig>
buildConfigs(bool smoke)
{
    // Workload sizes match bench/fault_campaign.cc's reference
    // targets; the smoke variant shrinks them so CI finishes in
    // seconds while exercising the same code paths.
    const unsigned mm = smoke ? 32 : 64;
    const unsigned blocks = smoke ? 2 : 4;

    const WorkloadFactory matmul = [mm] {
        return workloads::makeMatrixMul(mm);
    };
    const WorkloadFactory bfs = [blocks] {
        return workloads::makeBfs(blocks);
    };
    const WorkloadFactory scan = [blocks] {
        return workloads::makeScan(blocks);
    };
    const WorkloadFactory sha = [blocks] {
        return workloads::makeSha(blocks);
    };
    const WorkloadFactory fft = [blocks] {
        return workloads::makeFft(blocks);
    };

    const auto on = dmr::DmrConfig::paperDefault();
    const auto off = dmr::DmrConfig::off();

    std::vector<PerfConfig> configs;
    configs.push_back({"matrixmul_dmr", {matmul}, on, {}, {}});
    configs.push_back({"matrixmul_nodmr", {matmul}, off, {}, {}});
    // Rollback-replay enabled on the fault-free path: measures the
    // pure checkpointing overhead (delta capture + BAR/EXIT drain
    // stalls) the recovery engine adds on top of DMR.
    configs.push_back({"matrixmul_dmr_recovery",
                       {matmul},
                       on,
                       recovery::RecoveryConfig::paperDefault(),
                       {}});
    configs.push_back({"bfs_dmr", {bfs}, on, {}, {}});
    configs.push_back({"bfs_nodmr", {bfs}, off, {}, {}});
    configs.push_back({"scan_dmr", {scan}, on, {}, {}});
    configs.push_back({"scan_nodmr", {scan}, off, {}, {}});
    // The fault-campaign reference mix: every injection run in
    // bench/fault_campaign simulates one of these five golden
    // workloads under paper-default DMR, so their back-to-back
    // throughput tracks campaign wall time directly.
    configs.push_back(
        {"campaign_ref", {bfs, scan, matmul, sha, fft}, on, {}, {}});
    // Non-DMR protection backends through the seam: R-Thread is the
    // cheapest software scheme with per-issue work, Replay-Compare
    // the heaviest (full end-of-kernel replay), so together they
    // bracket the per-issue cost of the ProtectionScheme dispatch.
    configs.push_back({"matrixmul_rthread",
                       {matmul},
                       off,
                       {},
                       {protection::SchemeId::RThread}});
    configs.push_back({"matrixmul_replay_compare",
                       {matmul},
                       off,
                       {},
                       {protection::SchemeId::ReplayCompare}});
    // The ECC-protected banked memory hierarchy: same MatrixMul
    // instance on the banked DRAM model with SECDED in the config, so
    // the open-row bookkeeping and the [[unlikely]] fault-plane tests
    // on the access paths are both priced. Fault-free runs never arm
    // a plane, so this isolates the model's overhead, not the codec's.
    configs.push_back({"matrixmul_ecc_banked",
                       {matmul},
                       on,
                       {},
                       {},
                       arch::MemModel::Banked,
                       arch::EccKind::Secded});
    return configs;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

/** Run every config @p repeat times and fill @p m. */
void
measure(const std::vector<PerfConfig> &configs, unsigned repeat,
        trace::MetricsRegistry &m)
{
    using Clock = std::chrono::steady_clock;
    const auto gpu_cfg = referenceGpu();

    for (const auto &cfg : configs) {
        std::uint64_t cycles = 0, instrs = 0, launches = 0;
        const auto t0 = Clock::now();
        for (unsigned rep = 0; rep < repeat; ++rep) {
            for (const auto &factory : cfg.factories) {
                auto w = factory();
                gpu::Gpu g(configGpu(gpu_cfg, cfg), cfg.dmr,
                           /*seed=*/1, /*hook=*/nullptr, cfg.recovery,
                           cfg.scheme);
                const auto r = workloads::runVerified(*w, g);
                if (r.hung)
                    warped_fatal("perf config ", cfg.name,
                                 " hung — measurement void");
                cycles += r.cycles;
                instrs += r.issuedWarpInstrs;
                ++launches;
            }
        }
        const std::chrono::duration<double> dt = Clock::now() - t0;
        const std::string p = std::string("perf.") + cfg.name;

        m.counter(p + ".cycles") = cycles;
        m.counter(p + ".instructions") = instrs;
        m.counter(p + ".launches") = launches;
        m.gauge(p + ".wall_ms") = dt.count() * 1e3;
        m.gauge(p + ".cycles_per_sec") =
            dt.count() > 0 ? double(cycles) / dt.count() : 0.0;
        m.gauge(p + ".instr_per_sec") =
            dt.count() > 0 ? double(instrs) / dt.count() : 0.0;

        std::printf("  %-18s %10.1f ms  %12.0f cyc/s  %12.0f "
                    "instr/s\n",
                    cfg.name, dt.count() * 1e3,
                    m.gauge(p + ".cycles_per_sec"),
                    m.gauge(p + ".instr_per_sec"));
    }
    m.gauge("perf.peak_rss_mb") = peakRssMb();
}

/** The run-to-run-stable half of the registry (counters only). */
std::string
deterministicFingerprint(const trace::MetricsRegistry &m)
{
    std::string s;
    for (const auto &[k, v] : m.counters())
        s += k + "=" + std::to_string(v) + "\n";
    return s;
}

/**
 * Recovery noop gate: a Gpu built with recovery *disabled* must be
 * byte-identical to the plain baseline — same per-launch metrics
 * JSON, no recovery.* keys — even when the disabled config carries
 * non-default knob values. This is the regression tripwire for the
 * "recovery off means zero behavioral footprint" contract
 * (docs/FAULT_MODEL.md); it runs over every non-recovery pinned
 * config so drift in any workload's path is caught.
 */
bool
recoveryNoopCheck(bool smoke)
{
    const auto gpu_cfg = referenceGpu();
    recovery::RecoveryConfig noisyOff; // disabled, knobs deliberately
    noisyOff.retryBudget = 1;          // non-default: must not leak
    noisyOff.ringCapacity = 7;
    noisyOff.rollbackPenalty = 99;

    bool ok = true;
    for (const auto &cfg : buildConfigs(smoke)) {
        if (cfg.recovery.enabled)
            continue;
        for (const auto &factory : cfg.factories) {
            auto wa = factory();
            gpu::Gpu base(configGpu(gpu_cfg, cfg), cfg.dmr, /*seed=*/1,
                          /*hook=*/nullptr, {}, cfg.scheme);
            const auto ra = workloads::runVerified(*wa, base);

            auto wb = factory();
            gpu::Gpu off(configGpu(gpu_cfg, cfg), cfg.dmr, /*seed=*/1,
                         /*hook=*/nullptr, noisyOff, cfg.scheme);
            const auto rb = workloads::runVerified(*wb, off);

            const auto ja = ra.metrics.toJson();
            const auto jb = rb.metrics.toJson();
            if (ja != jb) {
                std::fprintf(stderr,
                             "recovery-noop-check: %s — metrics "
                             "differ between baseline and "
                             "recovery-disabled runs\n",
                             cfg.name);
                ok = false;
            }
            if (jb.find("recovery") != std::string::npos) {
                std::fprintf(stderr,
                             "recovery-noop-check: %s — disabled run "
                             "leaked recovery.* metrics keys\n",
                             cfg.name);
                ok = false;
            }
        }
        std::printf("  %-18s recovery-off path identical\n",
                    cfg.name);
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    std::string out = "BENCH_PR4.json";
    unsigned repeat = 1;
    bool smoke = false;
    bool self_check = false;
    bool noop_check = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--repeat") == 0 &&
                   i + 1 < argc) {
            repeat = parseUnsignedArg("--repeat", argv[++i]);
            if (repeat == 0)
                usage(2);
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--self-check") == 0) {
            self_check = true;
        } else if (std::strcmp(argv[i], "--recovery-noop-check") ==
                   0) {
            noop_check = true;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            usage(0);
        } else {
            std::fprintf(stderr, "perf_harness: unknown argument "
                         "'%s'\n", argv[i]);
            usage(2);
        }
    }

    if (noop_check) {
        std::printf("perf_harness: recovery noop check%s\n",
                    smoke ? " (smoke)" : "");
        if (!recoveryNoopCheck(smoke)) {
            std::fprintf(stderr,
                         "perf_harness: RECOVERY NOOP FAILURE — "
                         "disabled recovery perturbed the "
                         "simulation\n");
            return 1;
        }
        std::printf("recovery-noop-check: all configs identical\n");
        return 0;
    }

    const auto configs = buildConfigs(smoke);
    std::printf("perf_harness: %zu pinned configs, repeat=%u%s\n",
                configs.size(), repeat, smoke ? " (smoke)" : "");

    trace::MetricsRegistry m;
    m.counter("perf.repeat") = repeat;
    m.counter("perf.smoke") = smoke ? 1 : 0;
    measure(configs, repeat, m);

    if (self_check) {
        trace::MetricsRegistry second;
        second.counter("perf.repeat") = repeat;
        second.counter("perf.smoke") = smoke ? 1 : 0;
        std::printf("self-check: re-running suite\n");
        measure(configs, repeat, second);
        if (deterministicFingerprint(m) !=
            deterministicFingerprint(second)) {
            std::fprintf(stderr,
                         "perf_harness: DETERMINISM FAILURE — "
                         "counters differ between identical runs\n");
            return 1;
        }
        std::printf("self-check: deterministic counters identical\n");
    }

    std::ofstream f(out);
    if (!f) {
        std::fprintf(stderr, "perf_harness: cannot write %s\n",
                     out.c_str());
        return 2;
    }
    f << m.toJson();
    std::printf("metrics JSON written to %s\n", out.c_str());
    return 0;
}
