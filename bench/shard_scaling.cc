/**
 * @file
 * Shard-scaling harness for the campaign service (ROADMAP item 2's
 * "million-site questions served like production traffic"). Two
 * claims get measured:
 *
 *  1. **Invariance** — the same campaign folded from 1, 2, 4, and 8
 *     shards produces byte-identical report JSON (the ShardAggregator
 *     contract), with per-shard-count wall time so the overhead of
 *     sharding (one golden run per worker) is visible; and
 *
 *  2. **Stratified efficiency** — with `--strata T`, run the same
 *     budget uniform and stratified and compare coverage-CI widths.
 *     Proportional stratification is never worse than uniform
 *     (within noise); the printed `implied budget` is the fraction
 *     of the uniform budget a stratified campaign needs for the
 *     same width, (w_st / w_uni)². How far below 1.0 it lands is a
 *     property of the workload's window heterogeneity — see the
 *     measured table and the honesty discussion in EXPERIMENTS.md.
 *
 *     shard_scaling [--workload N] [--size S] [--sites N]
 *                   [--strata T] [--windows W] [--jobs J]
 */

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/flags.hh"
#include "fault/campaign_engine.hh"
#include "fault/shard.hh"

using namespace warped;

namespace {

struct Args
{
    std::string workload = "SCAN";
    unsigned size = 2;
    std::uint64_t sites = 2000;
    unsigned strata = 64;
    unsigned windows = 0;
    unsigned jobs = 1;
};

fault::EngineConfig
baseCfg(const Args &a)
{
    fault::EngineConfig ec;
    ec.workload = a.workload;
    ec.gpu = arch::GpuConfig::testDefault();
    ec.sites = a.sites;
    ec.seed = 42;
    ec.jobs = a.jobs;
    ec.space.cycleWindows = a.windows;
    return ec;
}

fault::WorkloadFactory
factoryFor(const Args &a)
{
    return [a] {
        return workloads::makeByNameSized(a.workload, a.size);
    };
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Args a;
    const auto &names = workloads::allNames();
    cli::FlagTable t("shard_scaling", "[options]",
                     "Sharded fold invariance and stratified sampling "
                     "efficiency.\n");
    t.choice("--workload", names,
             [&](std::size_t i) { a.workload = names[i]; },
             "campaign workload", a.workload);
    t.integer("--size", a.size, "workload size parameter");
    t.integer("--sites", a.sites, "sampled sites per campaign");
    t.integer("--strata", a.strata, "window buckets per unit");
    t.integer("--windows", a.windows,
              "transient pulse windows (0 = one per cycle)");
    t.integer("--jobs", a.jobs, "worker threads per campaign");
    if (const auto rc = t.parseOrUsage(argc, argv))
        return *rc;
    bench::printHeader(
        "shard scaling (campaign service)",
        "Sharded fold invariance + stratified sampling efficiency");

    const auto ec = baseCfg(a);
    std::printf("\ncampaign: %s (size %u), %llu sites, seed %llu\n\n",
                a.workload.c_str(), a.size,
                static_cast<unsigned long long>(a.sites),
                static_cast<unsigned long long>(ec.seed));

    // --- 1. shard-count invariance -------------------------------
    std::printf("%-8s %10s %12s  %s\n", "shards", "runs", "wall [s]",
                "report vs 1-shard");
    std::string reference;
    for (const std::uint64_t shards : {1, 2, 4, 8}) {
        const auto t0 = std::chrono::steady_clock::now();
        fault::CampaignEngine orch(factoryFor(a), ec);
        orch.prepare();
        const auto plans =
            fault::planShards(orch.plannedSites(), shards);
        fault::ShardAggregator agg(orch.skeleton(), orch.signature(),
                                   orch.plannedSites(), shards);
        for (const auto &p : plans)
            agg.fold(fault::runShardInProcess(factoryFor(a), ec, p));
        const auto json = agg.report().toJson();
        const double dt = secondsSince(t0);
        if (reference.empty())
            reference = json;
        std::printf("%-8llu %10llu %12.2f  %s\n",
                    static_cast<unsigned long long>(shards),
                    static_cast<unsigned long long>(
                        orch.plannedSites()),
                    dt,
                    json == reference ? "byte-identical" : "DIFFERS");
        if (json != reference)
            return 1;
    }

    // --- 2. stratified efficiency --------------------------------
    // Same budget both ways: pooled uniform Wilson width vs the
    // stratified estimator's width. Proportional stratification can
    // only remove the between-strata variance component, so the
    // squared width ratio is the budget fraction a stratified
    // campaign needs for the uniform campaign's precision.
    const auto uniform =
        fault::CampaignEngine(factoryFor(a), ec).run();
    const auto uci = uniform.overall.coverageCi();
    const double uwidth = uci.hi - uci.lo;

    auto sec = ec;
    sec.strataWindows = a.strata;
    const auto strat =
        fault::CampaignEngine(factoryFor(a), sec).run();

    const auto est = strat.stratifiedCoverage();
    const auto sci = est.interval();
    const double swidth = sci.hi - sci.lo;

    std::printf("\n%-34s %8s %10s %10s\n", "sampling", "runs",
                "coverage", "CI width");
    std::printf("%-34s %8llu %9.2f%% %10.4f\n",
                "uniform (pooled Wilson)",
                static_cast<unsigned long long>(uniform.sampled),
                100 * uniform.overall.coverage(), uwidth);
    std::printf("%-34s %8llu %9.2f%% %10.4f\n",
                ("stratified (" + std::to_string(a.strata) +
                 " window buckets)")
                    .c_str(),
                static_cast<unsigned long long>(strat.sampled),
                100 * est.estimate(), swidth);
    const double ratio = uwidth > 0 ? swidth / uwidth : 1.0;
    std::printf("\nwidth ratio %.2f at equal budget; implied budget "
                "for uniform precision: %.0f%% of the runs\n",
                ratio, 100.0 * ratio * ratio);
    return 0;
}
