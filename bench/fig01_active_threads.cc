/**
 * @file
 * Figure 1: execution-time breakdown with respect to the number of
 * active threads. For every workload, the fraction of issue slots
 * whose warp instruction had 1, 2-11, 12-21, 22-31 or 32 active
 * threads (the paper's five stacked-bar buckets).
 */

#include "bench/bench_util.hh"

using namespace warped;

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    setVerbose(false);
    bench::printHeader(
        "Figure 1",
        "Execution time breakdown vs. number of active threads");

    std::printf("%-12s %8s %8s %8s %8s %8s   %s\n", "benchmark", "1",
                "2-11", "12-21", "22-31", "32", "warp instrs");

    const auto results = bench::sweepWorkloads(
        [](const std::string &name) {
            return bench::runWorkload(name, bench::paperGpu(),
                                      dmr::DmrConfig::off());
        },
        jobs);

    double min_full = 1.0;
    std::string min_name;
    const auto &names = workloads::allNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &r = results[i];
        const auto &h = r.activeHist;
        const double f1 = h.rangeFraction(1, 1);
        const double f2 = h.rangeFraction(2, 11);
        const double f12 = h.rangeFraction(12, 21);
        const double f22 = h.rangeFraction(22, 31);
        const double f32 = h.rangeFraction(32, 32);
        std::printf("%-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%   "
                    "%llu\n",
                    name.c_str(), 100 * f1, 100 * f2, 100 * f12,
                    100 * f22, 100 * f32,
                    static_cast<unsigned long long>(h.total()));
        if (f32 < min_full) {
            min_full = f32;
            min_name = name;
        }
    }

    std::printf("\nPaper shape check: BFS should be the most "
                "underutilized bar;\nmost underutilized here: %s "
                "(%.1f%% fully-active slots)\n",
                min_name.c_str(), 100 * min_full);
    return 0;
}
