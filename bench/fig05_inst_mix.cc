/**
 * @file
 * Figure 5: execution-time breakdown with respect to instruction
 * type — the fraction of issue slots going to SP, SFU and LD/ST
 * units per workload (the heterogeneous-unit idleness inter-warp
 * DMR exploits).
 */

#include "bench/bench_util.hh"

using namespace warped;

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    setVerbose(false);
    bench::printHeader("Figure 5",
                       "Execution time breakdown by instruction type");

    std::printf("%-12s %8s %8s %8s\n", "benchmark", "SP", "SFU",
                "LD/ST");

    const auto results = bench::sweepWorkloads(
        [](const std::string &name) {
            return bench::runWorkload(name, bench::paperGpu(),
                                      dmr::DmrConfig::off());
        },
        jobs);

    const auto &names = workloads::allNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &r = results[i];
        const double total = double(r.issuedWarpInstrs);
        const auto u = [&](isa::UnitType t) {
            return 100.0 *
                   double(r.unitIssues[static_cast<unsigned>(t)]) /
                   total;
        };
        std::printf("%-12s %7.1f%% %7.1f%% %7.1f%%\n", name.c_str(),
                    u(isa::UnitType::SP), u(isa::UnitType::SFU),
                    u(isa::UnitType::LDST));
    }

    std::printf("\nPaper shape check: SP dominates everywhere; Libor "
                "and CUFFT carry the\nlargest SFU shares; no workload "
                "is LD/ST-majority.\n");
    return 0;
}
