/**
 * @file
 * Figure 9a: error coverage with respect to the SIMT-cluster
 * organization and thread-to-core mapping. Three machines per
 * workload, as in the paper:
 *   (1) 4-lane clusters, default in-order mapping  (avg 89.60 %)
 *   (2) 8-lane clusters, default in-order mapping  (avg 91.91 %)
 *   (3) 4-lane clusters, enhanced cross mapping    (avg 96.43 %)
 */

#include "bench/bench_util.hh"

using namespace warped;

namespace {

struct Row
{
    double c4 = 0.0, c8 = 0.0, cx = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    setVerbose(false);
    bench::printHeader("Figure 9a",
                       "Error coverage vs cluster size and mapping");

    std::printf("%-12s %14s %14s %14s\n", "benchmark", "4-lane cluster",
                "8-lane cluster", "cross mapping");

    const auto rows = bench::sweepWorkloads(
        [](const std::string &name) {
            auto cfg4 = bench::paperGpu();
            auto cfg8 = cfg4;
            cfg8.lanesPerCluster = 8;

            const auto r4 = bench::runWorkload(
                name, cfg4, dmr::DmrConfig::baselineMapping());
            const auto r8 = bench::runWorkload(
                name, cfg8, dmr::DmrConfig::baselineMapping());
            const auto rx = bench::runWorkload(
                name, cfg4, dmr::DmrConfig::paperDefault());
            return Row{100 * r4.coverage(), 100 * r8.coverage(),
                       100 * rx.coverage()};
        },
        jobs);

    std::vector<double> c4, c8, cx;
    const auto &names = workloads::allNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        c4.push_back(rows[i].c4);
        c8.push_back(rows[i].c8);
        cx.push_back(rows[i].cx);
        std::printf("%-12s %13.2f%% %13.2f%% %13.2f%%\n",
                    names[i].c_str(), c4.back(), c8.back(), cx.back());
    }

    std::printf("%-12s %13.2f%% %13.2f%% %13.2f%%\n", "AVERAGE",
                bench::meanOf(c4), bench::meanOf(c8),
                bench::meanOf(cx));
    std::printf("\nPaper:        %13s %14s %14s\n", "89.60%", "91.91%",
                "96.43%");
    std::printf("\nPaper shape check: cross mapping > 8-lane cluster > "
                "4-lane baseline, with\ncross mapping adding roughly "
                "+%.1f points over the baseline (paper: +6.8, of\n"
                "which +9.6%% more detection opportunity, Sec 4.2).\n",
                bench::meanOf(cx) - bench::meanOf(c4));
    return 0;
}
