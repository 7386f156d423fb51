/**
 * @file
 * SDC rate vs raw fault rate: sweep a per-value corruption
 * probability and compare outcome classes on the unprotected machine
 * versus Warped-DMR, using the campaign engine's Masked/Detected/
 * SDC/DUE taxonomy and Wilson intervals. The quantitative version of
 * the paper's opening claim — error detection turns silent data
 * corruptions (SDC) into detectable events (DUE).
 */

#include "bench/bench_util.hh"
#include "fault/campaign_engine.hh"
#include "fault/fault_injector.hh"

using namespace warped;

namespace {

/** Outcome of one (run, protect) cell, folded after the fan-out. */
struct Cell
{
    fault::OutcomeClass cls = fault::OutcomeClass::Masked;
    bool activated = false;
};

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const unsigned jobs = bench::parseJobs(argc, argv);
    bench::printHeader("Fault-rate sweep",
                       "Outcome class vs per-value corruption "
                       "probability (SCAN, 20 runs per point)");

    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 4;
    std::printf("(sweep machine: %s)\n\n", cfg.toString().c_str());

    std::printf("%-12s | %-22s | %-36s\n", "", "unprotected",
                "Warped-DMR");
    std::printf("%-12s | %6s %6s %6s | %6s %6s %6s %16s\n",
                "fault prob", "SDC", "mask", "DUE", "SDC", "detect",
                "mask", "det. 95% CI");

    sim::RunPool pool(jobs);
    for (double p : {1e-7, 1e-6, 1e-5, 1e-4}) {
        // 40 independent cells: run 0..19 x {unprotected, protected}.
        // Hook seeds depend only on the run index, so the fan-out is
        // deterministic for any jobs value.
        std::vector<Cell> cells(40);
        pool.parallelFor(cells.size(), [&](std::size_t i) {
            const unsigned run = static_cast<unsigned>(i / 2);
            const bool protect = (i % 2) != 0;
            fault::RandomFaultHook hook(p, 1000 + run);
            auto w = workloads::makeScan(2);
            gpu::Gpu g(cfg,
                       protect ? dmr::DmrConfig::paperDefault()
                               : dmr::DmrConfig::off(),
                       1, &hook);
            w->setup(g);
            const auto r = g.launch(w->program(), w->gridBlocks(),
                                    w->blockThreads(), 2000000);
            const bool activated = hook.activations() > 0;
            const bool detected = r.dmr.errorsDetected > 0;
            const bool ok = activated && !detected && !r.hung
                                ? w->verify(g)
                                : true;
            cells[i] = Cell{fault::classifyOutcome(
                                activated, detected, r.hung, ok,
                                /*recovered_clean=*/false),
                            activated};
        });

        fault::OutcomeCounts unprot, prot;
        for (std::size_t i = 0; i < cells.size(); ++i)
            ((i % 2) != 0 ? prot : unprot)
                .add(cells[i].cls, cells[i].activated);

        const auto ci = prot.detectionCi();
        std::printf("%-12g | %6llu %6llu %6llu | %6llu %6llu %6llu "
                    "  [%5.1f, %5.1f]\n",
                    p,
                    static_cast<unsigned long long>(unprot.sdc),
                    static_cast<unsigned long long>(unprot.masked),
                    static_cast<unsigned long long>(unprot.due),
                    static_cast<unsigned long long>(prot.sdc),
                    static_cast<unsigned long long>(prot.detected),
                    static_cast<unsigned long long>(prot.masked),
                    100 * ci.lo, 100 * ci.hi);
    }

    std::printf("\nWarped-DMR converts nearly every silent corruption "
                "into a detected event;\nresidual SDCs live in the "
                "uncovered fraction (cf. Fig 9a coverage).\n");
    return 0;
}
