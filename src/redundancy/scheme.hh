/**
 * @file
 * Error-detection scheme comparison (paper §5.3, Fig 10).
 *
 * Cost model over the protection registry's scheme lineup:
 *  - Original:   no protection.
 *  - R-Naive:    the kernel (and its host<->device transfers) run
 *                twice; outputs are compared on the CPU.
 *  - R-Thread:   the grid is doubled with redundant thread blocks;
 *                hidden when the chip has idle capacity, and the
 *                output transfer doubles (CPU-side comparison).
 *  - DMTR:       per-instruction temporal DMR with one cycle of
 *                slack (simplified SRT), on-GPU comparison.
 *  - Warped-DMR: the paper's mechanism, on-GPU comparison.
 *  - Partial-Thread / Replay-Compare: the post-paper backends.
 *
 * R-Naive and R-Thread are priced from unprotected launches (a whole
 * second kernel; a doubled grid). Every other scheme is one measured
 * launch of its backend behind the ProtectionScheme seam. R-Naive
 * stays analytic on purpose: the executing RNaiveScheme charges one
 * cycle per issue instead of re-running the kernel, so it would price
 * R-Naive below the 2x it costs (EXPERIMENTS.md, Fig 10).
 */

#ifndef WARPED_REDUNDANCY_SCHEME_HH
#define WARPED_REDUNDANCY_SCHEME_HH

#include <string>

#include "arch/gpu_config.hh"
#include "gpu/gpu.hh"
#include "protection/scheme_registry.hh"
#include "workloads/workload.hh"

namespace warped {
namespace redundancy {

/**
 * Host<->device copy timing (the paper measured it with the CUDA
 * timer on real hardware; we model a PCIe gen-2 x16 link).
 */
struct TransferModel
{
    double bandwidthGBps = 4.0; ///< effective PCIe gen2 x16
    double perCallUs = 8.0;     ///< driver + DMA setup per memcpy

    double
    timeNs(std::size_t bytes, unsigned calls = 1) const
    {
        return double(bytes) / (bandwidthGBps) /* GB/s == B/ns */
               + double(calls) * perCallUs * 1e3;
    }
};

struct SchemeResult
{
    protection::SchemeId scheme = protection::SchemeId::Original;
    double kernelNs = 0.0;
    double transferNs = 0.0;
    gpu::LaunchResult launch{32};

    double totalNs() const { return kernelNs + transferNs; }
};

/**
 * Run @p scheme for the named Table-4 workload and report kernel and
 * transfer components.
 *
 * @param scheme        protection scheme to price
 * @param workload_name Table-4 workload (workloads::makeByName)
 * @param cfg           machine description
 * @param tm            host<->device transfer timing
 */
SchemeResult
runScheme(protection::SchemeId scheme, const std::string &workload_name,
          const arch::GpuConfig &cfg,
          const TransferModel &tm = TransferModel{});

} // namespace redundancy
} // namespace warped

#endif // WARPED_REDUNDANCY_SCHEME_HH
