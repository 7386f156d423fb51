/**
 * @file
 * The pinned reference configurations: eleven small verified launch
 * sequences on the 4-SM test GPU that cover every machine variant a
 * campaign can run on — DMR on and off, rollback-replay recovery, the
 * R-Thread and Replay-Compare backends, the banked SECDED memory
 * hierarchy, and the five-kernel campaign reference mix. The
 * determinism and recovery-off tests run each of them as an input.
 */

#ifndef WARPED_TESTS_PINNED_CONFIGS_HH
#define WARPED_TESTS_PINNED_CONFIGS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "dmr/dmr_config.hh"
#include "gpu/gpu.hh"
#include "protection/scheme_registry.hh"
#include "recovery/recovery_config.hh"
#include "workloads/workload.hh"

namespace warped {
namespace test {

struct PinnedConfig
{
    std::string name;
    /** Workloads launched back to back, each on a fresh Gpu. */
    std::vector<std::function<std::unique_ptr<workloads::Workload>()>>
        factories;
    dmr::DmrConfig dmr;
    recovery::RecoveryConfig recovery; ///< default: disabled
    protection::SchemeConfig scheme;   ///< default: Warped-DMR
    arch::MemModel memModel = arch::MemModel::Flat;
    arch::EccKind ecc = arch::EccKind::None;
};

inline std::vector<PinnedConfig>
pinnedConfigs()
{
    using namespace workloads;
    const auto mm = [] { return makeMatrixMul(32); };
    const auto bfs = [] { return makeBfs(2); };
    const auto scan = [] { return makeScan(2); };
    const auto sha = [] { return makeSha(2); };
    const auto fft = [] { return makeFft(2); };
    const auto on = dmr::DmrConfig::paperDefault();
    const auto off = dmr::DmrConfig::off();
    const auto rthread = protection::SchemeId::RThread;
    const auto replay = protection::SchemeId::ReplayCompare;

    return {
        {"matrixmul_dmr", {mm}, on, {}, {}},
        {"matrixmul_nodmr", {mm}, off, {}, {}},
        {"matrixmul_dmr_recovery", {mm}, on,
         recovery::RecoveryConfig::paperDefault(), {}},
        {"bfs_dmr", {bfs}, on, {}, {}},
        {"bfs_nodmr", {bfs}, off, {}, {}},
        {"scan_dmr", {scan}, on, {}, {}},
        {"scan_nodmr", {scan}, off, {}, {}},
        {"campaign_ref", {bfs, scan, mm, sha, fft}, on, {}, {}},
        {"matrixmul_rthread", {mm}, off, {}, {rthread}},
        {"matrixmul_replay_compare", {mm}, off, {}, {replay}},
        {"matrixmul_ecc_banked", {mm}, on, {}, {},
         arch::MemModel::Banked, arch::EccKind::Secded},
    };
}

/**
 * Launch every workload of @p cfg, verified, with recovery
 * configured as @p rec; returns each launch's metrics JSON in order.
 */
inline std::vector<std::string>
runPinned(const PinnedConfig &cfg, const recovery::RecoveryConfig &rec)
{
    auto gpu = arch::GpuConfig::testDefault();
    gpu.numSms = 4;
    gpu.memModel = cfg.memModel;
    gpu.eccKind = cfg.ecc;
    std::vector<std::string> out;
    for (const auto &factory : cfg.factories) {
        auto w = factory();
        gpu::Gpu g(gpu, cfg.dmr, /*seed=*/1, /*hook=*/nullptr, rec,
                   cfg.scheme);
        out.push_back(workloads::runVerified(*w, g).metrics.toJson());
    }
    return out;
}

} // namespace test
} // namespace warped

#endif // WARPED_TESTS_PINNED_CONFIGS_HH
