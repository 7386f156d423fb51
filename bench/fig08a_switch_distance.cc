/**
 * @file
 * Figure 8a: instruction-type switching distances — the average (and
 * max) number of consecutively issued instructions of the same unit
 * type before the issue stream switches. The paper reads off this
 * figure that a ~6-entry ReplayQ suffices on average and 20 entries
 * bound the worst case; this harness prints the same per-type series.
 */

#include <algorithm>

#include "bench/bench_util.hh"

using namespace warped;

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    setVerbose(false);
    bench::printHeader(
        "Figure 8a",
        "Average same-type issue run length (switching distance)");

    std::printf("%-12s %9s %9s %9s %9s\n", "benchmark", "SP", "SFU",
                "LD/ST", "max(all)");

    const auto results = bench::sweepWorkloads(
        [](const std::string &name) {
            return bench::runWorkload(name, bench::paperGpu(),
                                      dmr::DmrConfig::off());
        },
        jobs);

    double worst_mean = 0.0;
    const auto &names = workloads::allNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &r = results[i];
        std::uint64_t mx = 0;
        for (unsigned t = 0; t < isa::kNumUnitTypes; ++t)
            mx = std::max(mx, r.maxTypeRun[t]);
        std::printf("%-12s %9.2f %9.2f %9.2f %9llu\n", name.c_str(),
                    r.meanTypeRun[0], r.meanTypeRun[1],
                    r.meanTypeRun[2],
                    static_cast<unsigned long long>(mx));
        for (unsigned t = 0; t < isa::kNumUnitTypes; ++t)
            worst_mean = std::max(worst_mean, r.meanTypeRun[t]);
    }

    std::printf("\nPaper shape check: most means below ~6 (the "
                "average ReplayQ size the paper\npicks); burst-heavy "
                "outliers (SHA/MatrixMul class) reach the teens. "
                "Worst mean here: %.1f\n",
                worst_mean);
    return 0;
}
