/**
 * @file
 * The one table of protection schemes: names (CLI slug and Fig-10
 * display form), capabilities, and the factory that builds a backend
 * for an SM. Fig 10's column names and the `--scheme` CLI flag both
 * resolve through here, so a scheme cannot exist under two spellings.
 */

#ifndef WARPED_PROTECTION_SCHEME_REGISTRY_HH
#define WARPED_PROTECTION_SCHEME_REGISTRY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "protection/protection_scheme.hh"

namespace warped {

namespace arch {
struct GpuConfig;
}
namespace dmr {
struct DmrConfig;
}
namespace func {
class Executor;
}

namespace protection {

/** CLI slug ("warped-dmr", "r-naive", ...): what `--scheme` takes. */
const char *schemeCliName(SchemeId id);

/** Paper-figure display name ("Warped-DMR", "R-Naive", ...). */
const char *schemeDisplayName(SchemeId id);

/**
 * Strict slug -> id lookup; nullopt on anything that is not exactly a
 * known CLI slug (callers own the error reporting — `warped_sim`
 * exits 2 with usage, per the CLI conventions).
 */
std::optional<SchemeId> schemeFromName(std::string_view name);

/** All schemes in Fig-10 column / sweep order. */
const std::array<SchemeId, kNumSchemes> &allSchemes();

/** Whether rollback-replay recovery can attach (per-instruction
 *  detection callbacks exist and arrive before state is lost). */
bool schemeSupportsRecovery(SchemeId id);

/** Whether the backend is the DmrEngine itself (so `DmrConfig`
 *  knobs — ReplayQ size, mapping, lane shuffle — apply to it). */
bool schemeUsesDmrEngine(SchemeId id);

/**
 * Whether the scheme can observe *memory-data* faults. False for
 * every execution-side scheme in the registry: redundant executions
 * (spatial or temporal, any protect fraction) consume the same
 * loaded value, so a corrupted memory cell produces two identical —
 * equally wrong — results and no comparator ever fires. Memory
 * faults are ECC territory (GpuConfig::eccKind); campaigns over the
 * memory fault domain print a note when the selected scheme cannot
 * contribute.
 */
bool schemeCoversMemory(SchemeId id);

/** Fatal on out-of-range knobs (protectFraction outside [0,1]). */
void validateSchemeConfig(const SchemeConfig &cfg);

/**
 * Build one SM's backend. @p dcfg configures DmrEngine-based schemes
 * (WarpedDmr uses it as-is; Dmtr overrides it with the §5.3 DMTR
 * knobs); the software schemes ignore it.
 */
std::unique_ptr<ProtectionScheme>
makeScheme(const SchemeConfig &cfg, const arch::GpuConfig &gpu,
           const dmr::DmrConfig &dcfg, func::Executor &exec,
           std::uint64_t seed);

} // namespace protection
} // namespace warped

#endif // WARPED_PROTECTION_SCHEME_REGISTRY_HH
