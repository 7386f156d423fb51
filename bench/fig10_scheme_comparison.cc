/**
 * @file
 * Figure 10: execution times (kernel + host<->device transfer) of the
 * error-detection approaches — the paper's five (Original, R-Naive,
 * R-Thread, DMTR, Warped-DMR, §5.3) plus the two follow-on backends
 * the protection seam made runnable (Partial-Thread at 50%% protected
 * slots, Replay-Compare). All seven are measured launches through
 * redundancy::runScheme; none are analytic estimates.
 */

#include <array>

#include "bench/bench_util.hh"
#include "protection/scheme_registry.hh"
#include "redundancy/scheme.hh"

using namespace warped;

namespace {

constexpr unsigned kN = protection::kNumSchemes;

struct Row
{
    std::array<double, kN> norm{};
    double xferShare = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    setVerbose(false);
    bench::printHeader("Figure 10",
                       "Execution time of different error-detection "
                       "approaches (normalized to Original; "
                       "kernel+transfer)");

    const auto schemes = protection::allSchemes();

    std::printf("%-12s", "benchmark");
    for (const auto s : schemes)
        std::printf(" %14s", protection::schemeDisplayName(s));
    std::printf("   (xfer share of Original)\n");

    const auto rows = bench::sweepWorkloads(
        [&](const std::string &name) {
            Row row;
            double base_total = 0.0, base_xfer = 0.0;
            for (unsigned i = 0; i < kN; ++i) {
                const auto r = redundancy::runScheme(
                    schemes[i], name, bench::paperGpu());
                if (i == 0) {
                    base_total = r.totalNs();
                    base_xfer = r.transferNs;
                }
                row.norm[i] = r.totalNs() / base_total;
            }
            row.xferShare = base_xfer / base_total;
            return row;
        },
        jobs);

    std::vector<double> norm[kN];
    const auto &names = workloads::allNames();
    for (std::size_t w = 0; w < names.size(); ++w) {
        std::printf("%-12s", names[w].c_str());
        for (unsigned i = 0; i < kN; ++i) {
            norm[i].push_back(rows[w].norm[i]);
            std::printf(" %14.3f", rows[w].norm[i]);
        }
        std::printf("   (%.0f%%)\n", 100.0 * rows[w].xferShare);
    }

    std::printf("%-12s", "AVERAGE");
    for (auto &v : norm)
        std::printf(" %14.3f", bench::meanOf(v));
    std::printf("\n");

    std::printf(
        "\nPaper shape check: R-Naive is the slowest (two kernels, "
        "two transfer sets);\nR-Thread second (hidden only with idle "
        "SMs, double output transfer); DMTR\npays per-instruction "
        "temporal redundancy; Warped-DMR is the cheapest\nfully-"
        "protected configuration. Partial-Thread (50%% of warp "
        "slots) tracks\nWarped-DMR closely: the slots it still "
        "protects pay in-warp duplication\nstalls instead of the "
        "engine's cheaper idle-lane machinery. Replay-Compare\npays "
        "a full re-execution at kernel end, near R-Naive but "
        "without the\nsecond transfer set.\n");
    return 0;
}
