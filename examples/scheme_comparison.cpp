/**
 * @file
 * Protection-scheme shopping: run one Table-4 workload under every
 * error-detection scheme in the protection registry (Original,
 * R-Naive, R-Thread, DMTR, Warped-DMR, Partial-Thread,
 * Replay-Compare) and report time, coverage and energy side by side.
 *
 *   $ ./scheme_comparison [workload]      (default: MatrixMul)
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "power/power_model.hh"
#include "redundancy/scheme.hh"

using namespace warped;

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::string name = argc > 1 ? argv[1] : "MatrixMul";

    auto cfg = arch::GpuConfig::paperDefault();
    power::PowerModel power_model(cfg);

    std::printf("Workload: %s on %s\n\n", name.c_str(),
                cfg.toString().c_str());
    std::printf("%-14s %12s %12s %12s %10s %12s\n", "scheme",
                "kernel(us)", "xfer(us)", "total(us)", "coverage",
                "energy(mJ)");

    using protection::SchemeId;
    for (auto s : protection::allSchemes()) {
        const auto r = redundancy::runScheme(s, name, cfg);
        // R-Naive / R-Thread take the analytic Fig-10 path (their
        // launch is the unprotected kernel), so the instruction-level
        // coverage counter is only meaningful for the schemes whose
        // backend actually executed.
        const bool hw = s == SchemeId::Dmtr || s == SchemeId::WarpedDmr ||
                        s == SchemeId::PartialThread ||
                        s == SchemeId::ReplayCompare;
        std::printf("%-14s %12.1f %12.1f %12.1f",
                    protection::schemeDisplayName(s), r.kernelNs / 1e3,
                    r.transferNs / 1e3, r.totalNs() / 1e3);
        if (hw)
            std::printf(" %9.1f%%", 100.0 * r.launch.coverage());
        else if (s == SchemeId::Original)
            std::printf(" %10s", "none");
        else
            std::printf(" %10s", "100%*");
        std::printf(" %12.2f\n", power_model.energyMj(r.launch));
    }
    std::printf("\n* R-Naive / R-Thread compare outputs on the CPU "
                "after the kernel: full\n  coverage but detection "
                "only at kernel granularity (late), and only for\n"
                "  errors that reach the output buffers.\n");
    return 0;
}
