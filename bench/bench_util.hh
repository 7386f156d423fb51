/**
 * @file
 * Shared plumbing for the figure-regeneration harnesses: fixed-width
 * table printing and the standard experiment setup (paper-default
 * machine, all 11 Table-4 workloads).
 */

#ifndef WARPED_BENCH_BENCH_UTIL_HH
#define WARPED_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "dmr/dmr_config.hh"
#include "gpu/gpu.hh"
#include "sim/run_pool.hh"
#include "workloads/workload.hh"

namespace warped {
namespace bench {

/** The paper's Table-3 machine. */
inline arch::GpuConfig
paperGpu()
{
    return arch::GpuConfig::paperDefault();
}

/** Print the standard header every harness emits. */
inline void
printHeader(const std::string &figure, const std::string &caption)
{
    std::printf("=======================================================");
    std::printf("=================\n");
    std::printf("Warped-DMR reproduction | %s\n", figure.c_str());
    std::printf("%s\n", caption.c_str());
    std::printf("Machine: %s\n", paperGpu().toString().c_str());
    std::printf("=======================================================");
    std::printf("=================\n");
}

/** Run one named workload, verified, under the given configs. */
inline gpu::LaunchResult
runWorkload(const std::string &name, const arch::GpuConfig &cfg,
            const dmr::DmrConfig &dcfg)
{
    auto w = workloads::makeByName(name);
    gpu::Gpu g(cfg, dcfg);
    return workloads::runVerified(*w, g);
}

/**
 * Parse the standard `--jobs N` harness flag (0 = hardware
 * concurrency, the default), the only flag every figure/campaign
 * binary accepts. A malformed command line prints the usage and exits
 * 2; `--help` prints it and exits 0.
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    unsigned jobs = sim::RunPool::kHardwareConcurrency;
    cli::FlagTable t(argc > 0 ? argv[0] : "bench", "[--jobs N]",
                     "Regenerate this figure; output is identical for "
                     "every --jobs value.\n");
    t.integer("--jobs", jobs, "worker threads (0 = hardware concurrency)");
    if (const auto rc = t.parseOrUsage(argc, argv))
        std::exit(*rc);
    return jobs;
}

/**
 * The standard workload sweep: evaluate @p fn for every Table-4
 * workload (Fig-1 order) across a RunPool, returning results in that
 * order — output is identical to a sequential sweep regardless of
 * @p jobs. @p fn must be callable concurrently (each call should
 * build its own Workload and Gpu).
 */
template <typename Fn>
auto
sweepWorkloads(Fn &&fn, unsigned jobs = sim::RunPool::kHardwareConcurrency)
    -> std::vector<std::invoke_result_t<Fn &, const std::string &>>
{
    using R = std::invoke_result_t<Fn &, const std::string &>;
    const auto &names = workloads::allNames();
    // Optional slots: R need not be default-constructible
    // (gpu::LaunchResult is not).
    std::vector<std::optional<R>> slots(names.size());
    sim::RunPool pool(jobs);
    pool.parallelFor(names.size(), [&](std::size_t i) {
        slots[i].emplace(fn(names[i]));
    });
    std::vector<R> out;
    out.reserve(slots.size());
    for (auto &s : slots)
        out.push_back(std::move(*s));
    return out;
}

/** Geometric-style arithmetic mean helper for summary rows. */
inline double
meanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

} // namespace bench
} // namespace warped

#endif // WARPED_BENCH_BENCH_UTIL_HH
