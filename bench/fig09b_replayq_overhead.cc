/**
 * @file
 * Figure 9b: normalized kernel cycles with respect to the ReplayQ
 * size (0, 1, 5, 10 entries), each bar normalized to the same
 * workload on the unprotected baseline machine. Paper averages:
 * 1.41 / 1.32 / 1.24 / 1.16.
 */

#include <array>

#include "bench/bench_util.hh"

using namespace warped;

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    setVerbose(false);
    bench::printHeader(
        "Figure 9b",
        "Normalized kernel cycles vs ReplayQ size (0/1/5/10)");

    const unsigned sizes[] = {0, 1, 5, 10};
    std::printf("%-12s %8s %8s %8s %8s\n", "benchmark", "q=0", "q=1",
                "q=5", "q=10");

    const auto rows = bench::sweepWorkloads(
        [&](const std::string &name) {
            const auto base = bench::runWorkload(
                name, bench::paperGpu(), dmr::DmrConfig::off());
            std::array<double, 4> norms{};
            for (unsigned i = 0; i < 4; ++i) {
                auto d = dmr::DmrConfig::paperDefault();
                d.replayQSize = sizes[i];
                const auto r =
                    bench::runWorkload(name, bench::paperGpu(), d);
                norms[i] = double(r.cycles) / double(base.cycles);
            }
            return norms;
        },
        jobs);

    std::vector<double> sums[4];
    const auto &names = workloads::allNames();
    for (std::size_t w = 0; w < names.size(); ++w) {
        std::printf("%-12s", names[w].c_str());
        for (unsigned i = 0; i < 4; ++i) {
            sums[i].push_back(rows[w][i]);
            std::printf(" %8.3f", rows[w][i]);
        }
        std::printf("\n");
    }

    std::printf("%-12s", "AVERAGE");
    for (auto &s : sums)
        std::printf(" %8.3f", bench::meanOf(s));
    std::printf("\n%-12s %8.2f %8.2f %8.2f %8.2f\n", "Paper", 1.41,
                1.32, 1.24, 1.16);

    std::printf("\nPaper shape check: overhead decreases monotonically "
                "with ReplayQ size; the\nfully-utilized, bursty "
                "workloads (MatrixMul class) lose the most without a\n"
                "queue (paper: >70%% at q=0 dropping to 18%% at "
                "q=10); underutilized workloads\n(BFS class) are near "
                "zero overhead at every size.\n");
    return 0;
}
