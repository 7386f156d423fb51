/**
 * @file
 * The repository benchmark: classified fault sites per second and
 * simulated warp-instructions per second over four closed-loop
 * workloads, with every layer timed from outside through the public
 * API (see README.md in this directory for the metric table).
 *
 *   warped_bench --workload W --seed N --seconds S --trace 0|1
 *                [--smoke] [--workdir DIR]
 *
 * Prints a human-readable table, then, as the last line of standard
 * output, one JSON object {correct, attempted, failed, metrics}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 they
 * are the per-layer ones, taken from traced repeats that alternate
 * with untraced ones so the same run also reports tracing overhead.
 * Exits 1 when any output check fails, 2 on a usage error.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "arch/gpu_config.hh"
#include "common/logging.hh"
#include "dmr/dmr_config.hh"
#include "fault/campaign_engine.hh"
#include "fault/shard.hh"
#include "gpu/gpu.hh"
#include "spans.hh"
#include "workloads/workload.hh"

using namespace warped;
using bench::nowNs;
using bench::Recorder;
using bench::ScopedSpan;
using bench::Span;

namespace {

// ---- command line ---------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    std::string workdir = ".bench_build/work";
};

const char *const kWorkloads[] = {"sim_ref", "campaign_mm",
                                  "campaign_sha_sharded", "campaign_mem"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "warped_bench: %s\n"
                 "usage: warped_bench --workload "
                 "sim_ref|campaign_mm|campaign_sha_sharded|campaign_mem\n"
                 "                    --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--workdir DIR]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    if (!text || !*text || *text == '-')
        usage((std::string("missing or bad value for ") + flag).c_str());
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--workload" && v) {
            o.workload = v;
            ++i;
        } else if (a == "--seed") {
            o.seed = parseU64("--seed", v);
            haveSeed = true;
            ++i;
        } else if (a == "--seconds") {
            const auto s = parseU64("--seconds", v);
            if (s == 0 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            o.seconds = double(s);
            haveSeconds = true;
            ++i;
        } else if (a == "--trace") {
            const auto t = parseU64("--trace", v);
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
            haveTrace = true;
            ++i;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--workdir" && v) {
            o.workdir = v;
            ++i;
        } else {
            usage(("unknown argument '" + a + "'").c_str());
        }
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  o.workload) == std::end(kWorkloads))
        usage("unknown or missing --workload");
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");
    return o;
}

// ---- statistics -----------------------------------------------------

struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }
    std::size_t n() const { return v.size(); }

    double
    median() const
    {
        if (v.empty())
            return 0.0;
        auto s = v;
        std::sort(s.begin(), s.end());
        const auto m = s.size() / 2;
        return s.size() % 2 ? s[m] : 0.5 * (s[m - 1] + s[m]);
    }

    /** Nearest-rank @p p quantile (0 < p <= 1); 0 when empty. */
    double
    quantile(double p) const
    {
        if (v.empty())
            return 0.0;
        auto s = v;
        std::sort(s.begin(), s.end());
        const auto rank = static_cast<std::size_t>(
            std::ceil(p * double(s.size())));
        return s[std::max<std::size_t>(rank, 1) - 1];
    }

    /**
     * The throughput estimator: the 90th percentile of per-sample
     * rates. Co-tenant load on a shared host only ever slows a sample
     * (by up to 40 % for seconds at a time), so the median of a run
     * moves with how much of the run was disturbed; the fast tail is
     * the code's own speed and repeats from run to run.
     */
    double fast() const { return quantile(0.9); }

    /** The highest percentile of {99.9, 99, 95, 90, 75} that leaves at
     *  least ten samples above it (nearest rank); the median when no
     *  level does. Returns {level in percent, value}. */
    std::pair<double, double>
    tail() const
    {
        auto s = v;
        std::sort(s.begin(), s.end());
        for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
            const auto rank = static_cast<std::size_t>(
                std::ceil(p / 100.0 * double(s.size())));
            if (rank >= 1 && s.size() - rank >= 10)
                return {p, s[rank - 1]};
        }
        return {50.0, median()};
    }
};

std::uint64_t
digest48(const std::string &text)
{
    // FNV-1a, folded to 48 bits so the JSON number stays exact.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return (h ^ (h >> 48)) & ((1ull << 48) - 1);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

// ---- fault-free reference launches ----------------------------------

/** The 4-SM campaign machine (warped_sim's default). */
arch::GpuConfig
campaignGpu()
{
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 4;
    return cfg;
}

/** Simulated-time totals over one pass of DMR-on reference launches. */
struct SimCounts
{
    std::uint64_t launches = 0, cycles = 0, offCycles = 0, smCycles = 0;
    std::uint64_t instrs = 0, stallDmr = 0, stallRaw = 0;
    std::uint64_t verifiable = 0, verified = 0, enqueues = 0;
    std::uint64_t eagerStalls = 0, replayQPeak = 0;
};

/** Host-time totals of one reference pass. */
struct PassTimes
{
    std::uint64_t onRuns = 0;
    double onRunNs = 0, onLaunchNs = 0, offLaunchNs = 0;
    std::uint64_t onInstrs = 0, offInstrs = 0;
};

struct Kernel
{
    std::string label;
    fault::WorkloadFactory make;
};

/**
 * One reference pass: every kernel launched fault-free under the
 * machine's DMR configuration and once more as a DMR-off twin, each on
 * a fresh workload and Gpu, each verified. Spans (when @p rec is set)
 * are `ref.run` / `ref.run_nodmr` with the layer calls as children.
 * Returns false when a launch hung or failed verify.
 */
bool
referencePass(const std::vector<Kernel> &kernels,
              const arch::GpuConfig &cfg, Recorder *rec,
              std::uint64_t parent, PassTimes &t, SimCounts *counts,
              std::string &digestText, std::uint64_t &launches)
{
    bool ok = true;
    for (const auto &k : kernels) {
        for (const bool dmrOn : {true, false}) {
            const auto dcfg = dmrOn ? dmr::DmrConfig::paperDefault()
                                    : dmr::DmrConfig::off();
            const auto runId = rec ? rec->newId() : 0;
            const auto site = rec ? rec->newSite() : -1;
            const std::int64_t t0 = nowNs();
            auto w = k.make();
            const std::int64_t t1 = nowNs();
            std::int64_t t2, t3, t4, t5;
            std::optional<gpu::LaunchResult> r;
            bool verified = false;
            {
                gpu::Gpu g(cfg, dcfg);
                t2 = nowNs();
                w->setup(g);
                t3 = nowNs();
                r.emplace(g.launch(w->program(), w->gridBlocks(),
                                   w->blockThreads()));
                t4 = nowNs();
                verified = !r->hung && w->verify(g);
                t5 = nowNs();
            }
            w.reset();
            const std::int64_t t6 = nowNs();
            ++launches;
            if (!verified) {
                std::fprintf(stderr,
                             "warped_bench: fault-free %s (%s) %s\n",
                             k.label.c_str(), dmrOn ? "DMR" : "no DMR",
                             r->hung ? "hung" : "failed verify");
                ok = false;
            }
            if (rec) {
                const auto th = Recorder::threadOrdinal();
                std::vector<Span> batch;
                const auto add = [&](const char *name, std::uint64_t id,
                                     std::uint64_t par, std::int64_t a,
                                     std::int64_t b) {
                    batch.push_back(
                        Span{name, id, par, a, b, th, site});
                };
                add(dmrOn ? "ref.run" : "ref.run_nodmr", runId, parent,
                    t0, t6);
                add("workloads.make", rec->newId(), runId, t0, t1);
                add("gpu.ctor", rec->newId(), runId, t1, t2);
                add("workloads.setup", rec->newId(), runId, t2, t3);
                add(dmrOn ? "gpu.launch" : "gpu.launch_nodmr",
                    rec->newId(), runId, t3, t4);
                add("workloads.verify", rec->newId(), runId, t4, t5);
                add("gpu.dtor", rec->newId(), runId, t5, t6);
                rec->add(std::move(batch));
            }
            digestText += r->metrics.toJson();
            if (dmrOn) {
                ++t.onRuns;
                t.onRunNs += double(t6 - t0);
                t.onLaunchNs += double(t4 - t3);
                t.onInstrs += r->issuedWarpInstrs;
            } else {
                t.offLaunchNs += double(t4 - t3);
                t.offInstrs += r->issuedWarpInstrs;
            }
            if (!counts)
                continue;
            if (!dmrOn) {
                counts->offCycles += r->cycles;
                continue;
            }
            ++counts->launches;
            counts->cycles += r->cycles;
            counts->smCycles += r->smCycles;
            counts->instrs += r->issuedWarpInstrs;
            counts->stallDmr += r->stallCyclesDmr;
            counts->stallRaw += r->stallCyclesRaw;
            counts->verifiable += r->dmr.verifiableThreadInstrs;
            counts->verified += r->dmr.verifiedThreadInstrs;
            counts->enqueues += r->dmr.enqueues;
            counts->eagerStalls += r->dmr.eagerStalls;
            counts->replayQPeak =
                std::max(counts->replayQPeak, r->dmr.replayQPeak);
        }
    }
    return ok;
}

// ---- the benchmark --------------------------------------------------

/** Campaign workload parameters. */
struct CampaignSpec
{
    std::string kernel; ///< paper workload name
    unsigned size = 0;  ///< makeByNameSized size
    fault::EngineConfig ec;
    bool sharded = false;
    unsigned shards = 0;
    unsigned threads = 2; ///< shard worker threads
};

/**
 * Where a decorated factory hangs its runs. Switched only between
 * repeats, never while the engine runs; atomics make the hand-off to
 * the pool's worker threads explicit.
 */
struct TraceTarget
{
    std::atomic<Recorder *> rec{nullptr};
    std::atomic<std::uint64_t> parent{0};
    std::atomic<const char *> runName{"fault.site"};
};

class Bench
{
  public:
    explicit Bench(Options o) : opt_(std::move(o)) {}

    int run();

  private:
    // workloads
    void simRef();
    void campaign(const CampaignSpec &spec);

    CampaignSpec specFor(const std::string &name) const;
    fault::WorkloadFactory tracedFactory(const CampaignSpec &spec,
                                         TraceTarget &target) const;
    bool timeLeft(std::int64_t deadline, unsigned repeat) const;
    bool tracedRepeat(unsigned repeat) const
    {
        return opt_.trace && repeat % 2 == 1;
    }
    void fail(const std::string &what, std::uint64_t count = 1);

    // reporting
    void addCampaignCounts(const fault::CampaignReport &rep,
                           bool memDomain);
    void addSimCounts(const SimCounts &c);
    void layerMetrics(const std::vector<Span> &spans);
    void printAndEmit();

    Options opt_;
    Recorder rec_;

    bool correct_ = true;
    std::uint64_t attempted_ = 0, failed_ = 0;

    Samples setupS_;
    Samples siteRate_[2];   ///< per repeat, by traced
    Samples instrRate_[2];  ///< per DMR-on reference pass, by traced
    Samples hostOverhead_;  ///< traced passes: 1 - nsOff/nsOn
    std::uint64_t repeatJobs_ = 1;
    std::uint64_t chunkSites_ = 0;
    const char *siteSpan_ = "fault.site";
    const char *repeatSpan_ = "fault.campaign";

    std::map<std::string, double> layer_; ///< per-layer metric values
    std::vector<std::string> notes_;      ///< extra table lines
};

CampaignSpec
Bench::specFor(const std::string &name) const
{
    CampaignSpec s;
    auto &ec = s.ec;
    ec.gpu = campaignGpu();
    ec.seed = opt_.seed;
    // Short repeats (0.1-0.7 s) give each run enough samples that some
    // fall between bursts of co-tenant load; see Samples::fast.
    ec.sites = opt_.smoke ? 24 : 200;
    ec.jobs = 2;
    ec.checkpointEvery = opt_.smoke ? 8 : 50;
    if (name == "campaign_mm") {
        s.kernel = "MatrixMul";
        s.size = 32;
    } else if (name == "campaign_sha_sharded") {
        s.kernel = "SHA";
        s.size = 4;
        s.sharded = true;
        s.shards = opt_.smoke ? 3 : 4;
    } else { // campaign_mem
        s.kernel = "MatrixMul";
        s.size = 32;
        ec.gpu.memModel = arch::MemModel::Banked;
        ec.gpu.eccKind = arch::EccKind::Secded;
        ec.space.execEnabled = false;
        ec.space.memEnabled = true;
    }
    ec.workload = s.kernel;
    if (!s.sharded)
        ec.checkpointPath = opt_.workdir + "/" + name + "." +
                            std::to_string(::getpid()) + ".ckpt";
    return s;
}

fault::WorkloadFactory
Bench::tracedFactory(const CampaignSpec &spec, TraceTarget &target) const
{
    const std::string kernel = spec.kernel;
    const unsigned size = spec.size;
    return [kernel, size, &target]()
               -> std::unique_ptr<workloads::Workload> {
        Recorder *rec = target.rec.load();
        if (!rec)
            return workloads::makeByNameSized(kernel, size);
        const std::int64_t t0 = nowNs();
        auto inner = workloads::makeByNameSized(kernel, size);
        return std::make_unique<bench::TracedWorkload>(
            std::move(inner), *rec, target.runName.load(),
            target.parent.load(), t0);
    };
}

bool
Bench::timeLeft(std::int64_t deadline, unsigned repeat) const
{
    // At least two repeats, so a traced run has one of each kind.
    return repeat < 2 || nowNs() < deadline;
}

void
Bench::fail(const std::string &what, std::uint64_t count)
{
    std::fprintf(stderr, "warped_bench: FAILED: %s\n", what.c_str());
    correct_ = false;
    failed_ += count;
}

void
Bench::simRef()
{
    const std::vector<Kernel> mix = {
        {"BFS-4", [] { return workloads::makeBfs(4); }},
        {"SCAN-4", [] { return workloads::makeScan(4); }},
        {"MatrixMul-64", [] { return workloads::makeMatrixMul(64); }},
        {"SHA-4", [] { return workloads::makeSha(4); }},
        {"CUFFT-4", [] { return workloads::makeFft(4); }},
    };
    const auto cfg = campaignGpu();
    siteSpan_ = "ref.run";
    repeatSpan_ = "ref.pass";

    // Set-up: build the instances and run the warm-up pass. The first
    // pass is the reference every later one must reproduce exactly.
    // Each untimed and each untraced timed pass is one more set-up
    // sample, so they spread over the whole run.
    std::string refDigest;
    SimCounts counts;
    for (unsigned i = 0; i < 2; ++i) {
        PassTimes t;
        std::string digest;
        const auto t0 = nowNs();
        const bool ok = referencePass(mix, cfg, nullptr, 0, t,
                                      i == 0 ? &counts : nullptr, digest,
                                      attempted_);
        setupS_.add(double(nowNs() - t0) * 1e-9);
        if (!ok)
            fail("fault-free launch in set-up");
        if (i == 0)
            refDigest = digest;
        else if (digest != refDigest)
            fail("set-up pass differs from the first pass");
    }

    const auto deadline =
        nowNs() + static_cast<std::int64_t>(opt_.seconds * 1e9);
    for (unsigned rep = 0; timeLeft(deadline, rep); ++rep) {
        const bool traced = tracedRepeat(rep);
        Recorder *rec = traced ? &rec_ : nullptr;
        PassTimes t;
        std::string digest;
        bool ok;
        const auto t0 = nowNs();
        {
            ScopedSpan pass(rec, "ref.pass", 0);
            ok = referencePass(mix, cfg, rec, pass.id(), t, nullptr,
                               digest, attempted_);
        }
        if (!traced)
            setupS_.add(double(nowNs() - t0) * 1e-9);
        if (!ok)
            fail("fault-free launch");
        if (digest != refDigest)
            fail("reference pass differs from the first pass");
        siteRate_[traced].add(double(t.onRuns) / (t.onRunNs * 1e-9));
        instrRate_[traced].add(double(t.onInstrs) /
                               (t.onLaunchNs * 1e-9));
        if (traced)
            hostOverhead_.add(1.0 - (t.offLaunchNs / t.offInstrs) /
                                        (t.onLaunchNs / t.onInstrs));
    }

    addSimCounts(counts);
    layer_["fault.report_digest"] = double(digest48(refDigest));
    for (const char *k : {"fault.sites", "fault.not_activated_frac",
                          "fault.detected_frac", "fault.sdc_frac",
                          "fault.due_frac", "mem.not_read_frac",
                          "mem.ecc_corrected_frac", "shard.delta_bytes"})
        layer_[k] = 0.0;
}

void
Bench::campaign(const CampaignSpec &spec)
{
    const auto &ec = spec.ec;
    TraceTarget target;
    const auto factory = tracedFactory(spec, target);
    const std::vector<Kernel> golden = {
        {spec.kernel + "-" + std::to_string(spec.size), [&spec] {
             return workloads::makeByNameSized(spec.kernel, spec.size);
         }}};
    repeatJobs_ = spec.sharded ? spec.threads : ec.jobs;
    repeatSpan_ = spec.sharded ? "shard.serve" : "fault.campaign";
    chunkSites_ = spec.sharded ? 0 : ec.checkpointEvery;
    std::filesystem::create_directories(opt_.workdir);

    // Set-up: CampaignEngine::prepare (golden run, site space,
    // sampler) on a fresh engine; the last one runs the campaign.
    // Traced runs trace it too, for the layer table. One more fresh
    // engine is prepared after every repeat, so the set-up samples
    // spread over the whole run.
    const auto prepareOnce = [&] {
        auto e = std::make_unique<fault::CampaignEngine>(factory, ec);
        const auto t0 = nowNs();
        e->prepare();
        setupS_.add(double(nowNs() - t0) * 1e-9);
        return e;
    };
    std::unique_ptr<fault::CampaignEngine> engine;
    for (unsigned i = 0; i < 2; ++i) {
        Recorder *rec = opt_.trace ? &rec_ : nullptr;
        ScopedSpan prep(rec, "fault.prepare", 0);
        target.rec = rec;
        target.parent = prep.id();
        target.runName = "fault.golden";
        engine = prepareOnce();
    }
    target.rec = nullptr;
    target.runName = "fault.site";
    const auto planned = engine->plannedSites();

    SimCounts counts;
    std::string refDigestText;
    {
        PassTimes t;
        if (!referencePass(golden, ec.gpu, nullptr, 0, t, &counts,
                           refDigestText, attempted_))
            fail("fault-free golden launch");
    }

    // Warm-up and reference report: a single-process
    // CampaignEngine::run. Every timed repeat must reproduce it byte
    // for byte — for the sharded workload, through the shard/delta
    // path.
    if (!ec.checkpointPath.empty())
        std::filesystem::remove(ec.checkpointPath);
    fault::CampaignReport refRep = engine->run();
    const std::string refJson = refRep.toJson();
    attempted_ += planned;
    if (refRep.abortedRuns)
        fail(std::to_string(refRep.abortedRuns) +
                 " site(s) aborted twice in the reference campaign",
             refRep.abortedRuns);

    auto shardCfg = ec;
    shardCfg.jobs = 1; // parallelism is across shards
    const auto plans = spec.sharded
                           ? fault::planShards(planned, spec.shards)
                           : std::vector<fault::ShardPlan>{};
    const auto skeleton = engine->skeleton();
    Samples deltaBytes;

    const auto deadline =
        nowNs() + static_cast<std::int64_t>(opt_.seconds * 1e9);
    for (unsigned rep = 0; timeLeft(deadline, rep); ++rep) {
        const bool traced = tracedRepeat(rep);
        Recorder *rec = traced ? &rec_ : nullptr;
        std::string json;
        std::uint64_t aborted = 0;
        const auto t0 = nowNs();
        if (!spec.sharded) {
            std::filesystem::remove(ec.checkpointPath);
            ScopedSpan camp(rec, "fault.campaign", 0);
            target.rec = rec;
            target.parent = camp.id();
            const auto r = engine->run();
            json = r.toJson();
            aborted = r.abortedRuns;
            target.rec = nullptr;
        } else {
            ScopedSpan serve(rec, "shard.serve", 0);
            std::vector<std::string> deltas(plans.size());
            std::vector<std::string> errors(plans.size());
            std::atomic<std::size_t> next{0};
            const auto worker = [&] {
                for (std::size_t k; (k = next.fetch_add(1)) <
                                    plans.size();) {
                    ScopedSpan run(rec, "shard.run", serve.id(),
                                   static_cast<std::int64_t>(k));
                    // The first run a shard's engine makes is its own
                    // golden run (runShardInProcess prepares afresh).
                    bool first = true;
                    const auto runId = run.id();
                    const fault::WorkloadFactory f =
                        [&]() -> std::unique_ptr<workloads::Workload> {
                        const std::int64_t m = nowNs();
                        auto inner = workloads::makeByNameSized(
                            spec.kernel, spec.size);
                        const char *name =
                            first ? "fault.golden" : "fault.site";
                        first = false;
                        if (!rec)
                            return inner;
                        return std::make_unique<bench::TracedWorkload>(
                            std::move(inner), *rec, name, runId, m);
                    };
                    try {
                        const auto d =
                            fault::runShardInProcess(f, shardCfg,
                                                     plans[k]);
                        const auto e0 = nowNs();
                        deltas[k] = d.toJson();
                        if (rec)
                            rec->record("shard.encode", runId, e0);
                    } catch (const std::exception &e) {
                        errors[k] = e.what();
                    }
                }
            };
            std::vector<std::thread> pool;
            for (unsigned i = 0; i < spec.threads; ++i)
                pool.emplace_back(worker);
            for (auto &th : pool)
                th.join();

            fault::ShardAggregator agg(skeleton, engine->signature(),
                                       planned, plans.size());
            for (std::size_t k = 0; k < plans.size(); ++k) {
                ++attempted_;
                if (!errors[k].empty()) {
                    fail("shard " + std::to_string(k) + ": " +
                         errors[k]);
                    continue;
                }
                deltaBytes.add(double(deltas[k].size()));
                try {
                    auto s0 = nowNs();
                    const auto d = fault::ShardDelta::fromJson(deltas[k]);
                    if (rec)
                        rec->record("shard.decode", serve.id(), s0);
                    s0 = nowNs();
                    agg.fold(d);
                    if (rec)
                        rec->record("shard.fold", serve.id(), s0);
                } catch (const fault::ShardError &e) {
                    fail(std::string("ShardError: ") + e.what());
                }
            }
            try {
                const auto s0 = nowNs();
                const auto r = agg.report();
                json = r.toJson();
                aborted = r.abortedRuns;
                if (rec)
                    rec->record("shard.report", serve.id(), s0);
            } catch (const fault::ShardError &e) {
                fail(std::string("ShardError: ") + e.what());
            }
        }
        const double dt = double(nowNs() - t0) * 1e-9;
        attempted_ += planned;
        if (aborted)
            fail(std::to_string(aborted) + " site(s) aborted twice",
                 aborted);
        if (json != refJson)
            fail(std::string(spec.sharded ? "folded shard report"
                                          : "campaign report") +
                 " differs from the reference CampaignEngine::run");
        siteRate_[traced].add(double(planned) / dt);

        // Fault-free launches of the campaign's own kernel between
        // repeats: the simulator's speed on this machine.
        for (unsigned i = 0; i < 3; ++i) {
            PassTimes t;
            std::string digest;
            bool ok;
            {
                ScopedSpan pass(rec, "ref.pass", 0);
                ok = referencePass(golden, ec.gpu, rec, pass.id(), t,
                                   nullptr, digest, attempted_);
            }
            if (!ok)
                fail("fault-free golden launch");
            if (digest != refDigestText)
                fail("golden launch differs from the first one");
            instrRate_[traced].add(double(t.onInstrs) /
                                   (t.onLaunchNs * 1e-9));
            if (traced)
                hostOverhead_.add(1.0 - (t.offLaunchNs / t.offInstrs) /
                                            (t.onLaunchNs / t.onInstrs));
        }
        prepareOnce();
    }
    if (!ec.checkpointPath.empty())
        std::filesystem::remove(ec.checkpointPath);

    addSimCounts(counts);
    addCampaignCounts(refRep, ec.space.memEnabled);
    layer_["fault.report_digest"] = double(digest48(refJson));
    layer_["shard.delta_bytes"] = deltaBytes.median();
}

void
Bench::addSimCounts(const SimCounts &c)
{
    const auto per = [](double a, double b) { return b ? a / b : 0.0; };
    const double ki = double(c.instrs) / 1000.0;
    layer_["sm.ipc"] = per(double(c.instrs), double(c.smCycles));
    layer_["sm.stall_cycles_dmr_per_kinstr"] = per(double(c.stallDmr), ki);
    layer_["sm.stall_cycles_raw_per_kinstr"] = per(double(c.stallRaw), ki);
    layer_["dmr.coverage"] =
        per(double(c.verified), double(c.verifiable));
    layer_["dmr.cycle_overhead"] =
        per(double(c.cycles), double(c.offCycles)) - 1.0;
    layer_["dmr.enqueues_per_kinstr"] = per(double(c.enqueues), ki);
    layer_["dmr.eager_stalls_per_kinstr"] =
        per(double(c.eagerStalls), ki);
    layer_["dmr.replayq_peak"] = double(c.replayQPeak);
    layer_["gpu.sim_cycles_per_launch"] =
        per(double(c.cycles), double(c.launches));
    layer_["gpu.warp_instrs_per_launch"] =
        per(double(c.instrs), double(c.launches));
}

void
Bench::addCampaignCounts(const fault::CampaignReport &rep, bool memDomain)
{
    const auto &o = rep.overall;
    const double n = double(o.total());
    const auto frac = [n](std::uint64_t k) {
        return n ? double(k) / n : 0.0;
    };
    layer_["fault.sites"] = n;
    layer_["fault.not_activated_frac"] = frac(o.notActivated);
    layer_["fault.detected_frac"] = frac(o.detected);
    layer_["fault.sdc_frac"] = frac(o.sdc);
    layer_["fault.due_frac"] = frac(o.due);
    layer_["mem.not_read_frac"] = memDomain ? frac(o.notActivated) : 0.0;
    layer_["mem.ecc_corrected_frac"] =
        memDomain ? frac(o.eccCorrected) : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "outcome mix over %llu sites: %llu not activated, "
                  "%llu masked, %llu detected, %llu ECC-corrected, "
                  "%llu SDC, %llu DUE",
                  static_cast<unsigned long long>(o.total()),
                  static_cast<unsigned long long>(o.notActivated),
                  static_cast<unsigned long long>(o.masked),
                  static_cast<unsigned long long>(o.detected),
                  static_cast<unsigned long long>(o.eccCorrected),
                  static_cast<unsigned long long>(o.sdc),
                  static_cast<unsigned long long>(o.due));
    notes_.push_back(buf);
}

/** Per-layer timing metrics from the traced repeats' spans. */
void
Bench::layerMetrics(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, const Span *> byId;
    for (const auto &s : spans)
        byId[s.id] = &s;
    const auto parentName = [&](const Span &s) -> std::string {
        const auto it = byId.find(s.parent);
        return it == byId.end() ? std::string() : it->second->name;
    };
    // Only spans inside timed repeats (set-up prepares are traced for
    // the layer table but are not part of any repeat).
    const auto inRepeat = [&](const Span &s) {
        const Span *p = &s;
        while (p) {
            if (p->name == repeatSpan_ || p->name == "ref.pass")
                return true;
            const auto it = byId.find(p->parent);
            p = it == byId.end() ? nullptr : it->second;
        }
        return false;
    };

    std::map<std::string, Samples> ms;
    std::uint64_t sites = 0, siteVerifies = 0;
    for (const auto &s : spans) {
        if (!inRepeat(s))
            continue;
        ms[s.name].add(s.ms());
        if (s.name == siteSpan_)
            ++sites;
        if (s.name == "workloads.verify" && parentName(s) == siteSpan_)
            ++siteVerifies;
    }
    const auto timing = [&](const std::string &key,
                            const std::string &span) {
        const auto &smp = ms[span];
        layer_[key + ".p50"] = smp.median();
        layer_[key + ".tail"] = smp.tail().second;
        layer_[key + ".n"] = double(smp.n());
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%-28s p50 %.4f ms, p%.4g %.4f ms, n=%zu",
                      key.c_str(), smp.median(), smp.tail().first,
                      smp.tail().second, smp.n());
        notes_.push_back(buf);
    };
    timing("workloads.setup_ms", "workloads.setup");
    timing("workloads.verify_ms", "workloads.verify");
    timing("gpu.launch_ms", "gpu.launch");
    timing("fault.site_ms", siteSpan_);
    layer_["gpu.ctor_ms.p50"] = ms["gpu.ctor"].median();
    layer_["workloads.verify_per_site"] =
        sites ? double(siteVerifies) / double(sites) : 0.0;

    // Pool idle share: time inside repeat spans when a worker ran no
    // kernel (fold, checkpoint, dispatch, waiting on the slowest run).
    double repeatNs = 0, busyNs = 0;
    std::vector<const Span *> repeats;
    for (const auto &s : spans)
        if (s.name == repeatSpan_)
            repeats.push_back(&s);
    for (const auto *r : repeats) {
        repeatNs += double(r->end - r->start);
        for (const auto &s : spans) {
            const bool run = s.name == "fault.site" ||
                             s.name == "fault.golden" ||
                             s.name == "ref.run" ||
                             s.name == "ref.run_nodmr";
            if (run && s.start >= r->start && s.end <= r->end)
                busyNs += double(s.end - s.start);
        }
    }
    layer_["sim.pool_idle_frac"] =
        repeatNs ? 1.0 - busyNs / (double(repeatJobs_) * repeatNs) : 0.0;

    // Chunk gaps of CampaignEngine::run: sites are dispatched in
    // run-index order and a chunk starts only after the previous one
    // was folded and checkpointed.
    if (chunkSites_) {
        Samples gaps;
        for (const auto *r : repeats) {
            std::vector<const Span *> sitesIn;
            for (const auto &s : spans)
                if (s.name == "fault.site" && s.parent == r->id)
                    sitesIn.push_back(&s);
            std::sort(sitesIn.begin(), sitesIn.end(),
                      [](const Span *a, const Span *b) {
                          return a->start < b->start;
                      });
            for (std::size_t b = chunkSites_; b < sitesIn.size();
                 b += chunkSites_) {
                std::int64_t lastEnd = 0;
                for (std::size_t i = b - chunkSites_; i < b; ++i)
                    lastEnd = std::max(lastEnd, sitesIn[i]->end);
                gaps.add(double(sitesIn[b]->start - lastEnd) * 1e-6);
            }
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "fault.chunk_gap_ms           p50 %.4f ms, "
                      "p%.4g %.4f ms, n=%zu",
                      gaps.median(), gaps.tail().first,
                      gaps.tail().second, gaps.n());
        notes_.push_back(buf);
    }

    // Shard layer: each shard re-runs the golden run before its sites.
    if (repeatSpan_ == std::string("shard.serve")) {
        Samples prep;
        for (const auto &s : spans) {
            if (s.name != "shard.run" || !inRepeat(s))
                continue;
            std::int64_t firstSite = s.end;
            for (const auto &c : spans)
                if (c.parent == s.id && c.name == "fault.site")
                    firstSite = std::min(firstSite, c.start);
            prep.add(double(firstSite - s.start) * 1e-6);
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "shard.prepare_ms             p50 %.4f ms, n=%zu",
                      prep.median(), prep.n());
        notes_.push_back(buf);
        for (const char *n : {"shard.encode", "shard.decode",
                              "shard.fold", "shard.report"}) {
            std::snprintf(buf, sizeof buf,
                          "%-28s p50 %.1f us, n=%zu", n,
                          ms[n].median() * 1e3, ms[n].n());
            notes_.push_back(buf);
        }
    }

    // The decorator cannot see a site's outcome class; split sites by
    // the exit it can see instead.
    Samples verifiedSites, unverifiedSites;
    std::map<std::uint64_t, bool> hasVerify;
    for (const auto &s : spans)
        if (s.name == "workloads.verify")
            hasVerify[s.parent] = true;
    for (const auto &s : spans)
        if (s.name == "fault.site" && inRepeat(s))
            (hasVerify.count(s.id) ? verifiedSites : unverifiedSites)
                .add(s.ms());
    if (siteSpan_ == std::string("fault.site")) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "fault.site_ms by exit: verified p50 %.4f ms "
                      "(n=%zu), unverified p50 %.4f ms (n=%zu)",
                      verifiedSites.median(), verifiedSites.n(),
                      unverifiedSites.median(), unverifiedSites.n());
        notes_.push_back(buf);
    }

    const double on = instrRate_[1].fast();
    layer_["gpu.ns_per_warp_instr"] = on ? 1e9 / on : 0.0;
    layer_["dmr.host_overhead_frac"] = hostOverhead_.median();
    const double untraced = siteRate_[0].fast();
    layer_["bench.trace_overhead_frac"] =
        untraced ? 1.0 - siteRate_[1].fast() / untraced : 0.0;
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"sites_per_s", "sites/s"},
    {"sim_instr_per_s", "instr/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"workloads.setup_ms.p50", "ms"},
    {"workloads.setup_ms.tail", "ms"},
    {"workloads.setup_ms.n", "count"},
    {"workloads.verify_ms.p50", "ms"},
    {"workloads.verify_ms.tail", "ms"},
    {"workloads.verify_ms.n", "count"},
    {"workloads.verify_per_site", "ratio"},
    {"gpu.ctor_ms.p50", "ms"},
    {"gpu.launch_ms.p50", "ms"},
    {"gpu.launch_ms.tail", "ms"},
    {"gpu.launch_ms.n", "count"},
    {"gpu.ns_per_warp_instr", "ns"},
    {"gpu.sim_cycles_per_launch", "cycles"},
    {"gpu.warp_instrs_per_launch", "count"},
    {"fault.site_ms.p50", "ms"},
    {"fault.site_ms.tail", "ms"},
    {"fault.site_ms.n", "count"},
    {"sim.pool_idle_frac", "frac"},
    {"dmr.host_overhead_frac", "frac"},
    {"sm.ipc", "instr/cycle"},
    {"sm.stall_cycles_dmr_per_kinstr", "cycles/kinstr"},
    {"sm.stall_cycles_raw_per_kinstr", "cycles/kinstr"},
    {"dmr.coverage", "frac"},
    {"dmr.cycle_overhead", "frac"},
    {"dmr.enqueues_per_kinstr", "count/kinstr"},
    {"dmr.eager_stalls_per_kinstr", "count/kinstr"},
    {"dmr.replayq_peak", "count"},
    {"fault.sites", "count"},
    {"fault.not_activated_frac", "frac"},
    {"fault.detected_frac", "frac"},
    {"fault.sdc_frac", "frac"},
    {"fault.due_frac", "frac"},
    {"fault.report_digest", "count"},
    {"mem.not_read_frac", "frac"},
    {"mem.ecc_corrected_frac", "frac"},
    {"shard.delta_bytes", "bytes"},
    {"bench.trace_overhead_frac", "frac"},
};

/** Paper reference values printed beside the simulated counts. */
const std::map<std::string, const char *> kPaper = {
    {"dmr.coverage", "paper 0.9643"},
    {"dmr.cycle_overhead", "paper 0.16"},
};

void
Bench::printAndEmit()
{
    std::map<std::string, double> values;
    const MetricDef *defs;
    std::size_t count;
    if (opt_.trace) {
        values = layer_;
        defs = kPerLayer;
        count = std::size(kPerLayer);
    } else {
        values["sites_per_s"] = siteRate_[0].fast();
        values["sim_instr_per_s"] = instrRate_[0].fast();
        values["setup_s"] = setupS_.median();
        values["peak_rss_mb"] = peakRssMb();
        defs = kEndToEnd;
        count = std::size(kEndToEnd);
    }

    std::printf("\n%s, seed %llu, %s run (%zu repeats, %zu set-ups)\n",
                opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed),
                opt_.trace ? "traced" : "untraced",
                siteRate_[0].n() + siteRate_[1].n(), setupS_.n());
    for (const auto &n : notes_)
        std::printf("  %s\n", n.c_str());
    const auto spread = [](const char *what, const Samples &s) {
        if (s.n() < 4)
            return;
        std::printf("  untraced %s: q1 %.6g, median %.6g, q3 %.6g, "
                    "p90 %.6g (n=%zu)\n",
                    what, s.quantile(0.25), s.median(), s.quantile(0.75),
                    s.fast(), s.n());
    };
    spread("sites/s per repeat", siteRate_[0]);
    spread("instr/s per reference pass", instrRate_[0]);
    std::printf("  %-34s %22s  %s\n", "metric", "value", "unit");
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_) +
            ", \"failed\": " + std::to_string(failed_) +
            ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < count; ++i) {
        const auto it = values.find(defs[i].name);
        if (it == values.end()) {
            std::fprintf(stderr, "warped_bench: metric %s not computed\n",
                         defs[i].name);
            std::exit(3);
        }
        const auto paper = kPaper.find(defs[i].name);
        std::printf("  %-34s %22.6f  %s%s%s\n", defs[i].name, it->second,
                    defs[i].unit,
                    paper != kPaper.end() ? "   " : "",
                    paper != kPaper.end() ? paper->second : "");
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, it->second,
                      defs[i].unit);
        json += buf;
    }
    json += "}}";

    if (opt_.trace) {
        const auto spans = rec_.snapshot();
        const auto rows = bench::layerTable(spans);
        double self = 0;
        for (const auto &r : rows)
            self += r.selfMs;
        std::printf("\n  layer table (traced spans, self = duration "
                    "minus child coverage)\n");
        std::printf("  %-22s %9s %12s %12s %7s\n", "span", "count",
                    "total ms", "self ms", "self %");
        for (const auto &r : rows)
            std::printf("  %-22s %9llu %12.3f %12.3f %6.2f%%\n",
                        r.name.c_str(),
                        static_cast<unsigned long long>(r.count),
                        r.totalMs, r.selfMs,
                        self ? 100.0 * r.selfMs / self : 0.0);
        std::printf("  tracing overhead on sites_per_s: %.2f%% "
                    "(traced vs untraced repeats of this run)\n",
                    100.0 * layer_["bench.trace_overhead_frac"]);
        const std::string path = opt_.workdir + "/trace_" +
                                 opt_.workload + "_seed" +
                                 std::to_string(opt_.seed) + ".json";
        std::filesystem::create_directories(opt_.workdir);
        std::ofstream f(path);
        f << rec_.chromeJson();
        std::printf("  spans written to %s\n", path.c_str());
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int
Bench::run()
{
    setVerbose(false);
    try {
        if (opt_.workload == "sim_ref")
            simRef();
        else
            campaign(specFor(opt_.workload));
        if (opt_.trace)
            layerMetrics(rec_.snapshot());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "warped_bench: %s\n", e.what());
        return 1;
    }
    printAndEmit();
    return correct_ ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Bench b(parseArgs(argc, argv));
    return b.run();
}
