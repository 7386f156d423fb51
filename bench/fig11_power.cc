/**
 * @file
 * Figure 11: normalized power and energy consumption of Warped-DMR
 * against the unprotected baseline, using the Hong&Kim-style
 * analytical model (§5.4). Paper averages: power 1.11x, energy 1.31x.
 */

#include "bench/bench_util.hh"
#include "power/power_model.hh"

using namespace warped;

namespace {

struct Row
{
    double powerRatio = 0.0, energyRatio = 0.0;
    double basePower = 0.0, dmrPower = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = bench::parseJobs(argc, argv);
    setVerbose(false);
    bench::printHeader("Figure 11",
                       "Normalized power and energy (Warped-DMR / "
                       "baseline)");

    std::printf("%-12s %10s %10s %14s %14s\n", "benchmark", "power",
                "energy", "base power(W)", "dmr power(W)");

    const auto rows = bench::sweepWorkloads(
        [](const std::string &name) {
            power::PowerModel model(bench::paperGpu());
            const auto base = bench::runWorkload(
                name, bench::paperGpu(), dmr::DmrConfig::off());
            const auto prot = bench::runWorkload(
                name, bench::paperGpu(),
                dmr::DmrConfig::paperDefault());

            const double p0 = model.estimate(base).total();
            const double p1 = model.estimate(prot).total();
            const double e0 = model.energyMj(base);
            const double e1 = model.energyMj(prot);
            return Row{p1 / p0, e1 / e0, p0, p1};
        },
        jobs);

    std::vector<double> powers, energies;
    const auto &names = workloads::allNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        powers.push_back(rows[i].powerRatio);
        energies.push_back(rows[i].energyRatio);
        std::printf("%-12s %10.3f %10.3f %14.1f %14.1f\n",
                    names[i].c_str(), rows[i].powerRatio,
                    rows[i].energyRatio, rows[i].basePower,
                    rows[i].dmrPower);
    }

    std::printf("%-12s %10.3f %10.3f\n", "AVERAGE",
                bench::meanOf(powers), bench::meanOf(energies));
    std::printf("%-12s %10.2f %10.2f\n", "Paper", 1.11, 1.31);

    std::printf("\nPaper shape check: power rises modestly (redundant "
                "executions fill otherwise\nidle units), energy rises "
                "more (power x longer runtime); the workloads with\n"
                "the largest timing overhead pay the most energy "
                "(paper: Laplace up to +60%%).\n");
    return 0;
}
