#include "arch/gpu_config.hh"

#include <sstream>

#include "common/logging.hh"

namespace warped {
namespace arch {

const char *
memModelName(MemModel m)
{
    switch (m) {
      case MemModel::Flat:
        return "flat";
      case MemModel::Banked:
        return "banked";
    }
    return "?";
}

const char *
eccKindName(EccKind k)
{
    switch (k) {
      case EccKind::None:
        return "none";
      case EccKind::Secded:
        return "secded";
      case EccKind::Chipkill:
        return "chipkill";
    }
    return "?";
}

GpuConfig
GpuConfig::paperDefault()
{
    return GpuConfig{};
}

GpuConfig
GpuConfig::testDefault()
{
    GpuConfig c;
    c.numSms = 2;
    c.globalMemLatency = 40;
    c.sharedMemLatency = 8;
    c.globalMemBytes = 8u * 1024u * 1024u;
    return c;
}

void
GpuConfig::validate() const
{
    if (warpSize == 0 || warpSize > 64)
        warped_fatal("warpSize must be in [1,64], got ", warpSize);
    if (lanesPerCluster == 0 || warpSize % lanesPerCluster != 0)
        warped_fatal("lanesPerCluster (", lanesPerCluster,
                     ") must divide warpSize (", warpSize, ")");
    if (numSms == 0)
        warped_fatal("need at least one SM");
    if (maxThreadsPerSm < warpSize)
        warped_fatal("maxThreadsPerSm must hold at least one warp");
    if (rfStages == 0 || spLatency == 0)
        warped_fatal("pipeline latencies must be non-zero");
    if (numSchedulers == 0 || numSchedulers > 4)
        warped_fatal("numSchedulers must be in [1,4], got ",
                     numSchedulers);
    if (clockGhz <= 0.0)
        warped_fatal("clockGhz must be positive");
    if (memModel == MemModel::Banked) {
        if (memBanks == 0)
            warped_fatal("banked memory needs at least one bank");
        if (memRowBytes < coalesceSegmentBytes ||
            memRowBytes % coalesceSegmentBytes != 0)
            warped_fatal("memRowBytes (", memRowBytes,
                         ") must be a multiple of "
                         "coalesceSegmentBytes (",
                         coalesceSegmentBytes, ")");
    }
}

std::string
GpuConfig::toString() const
{
    std::ostringstream os;
    os << "GPU: " << numSms << " SMs x " << warpSize
       << "-wide SIMT, cluster " << lanesPerCluster
       << ", max " << maxThreadsPerSm << " thr/SM, RF " << rfStages
       << "cy, SP " << spLatency << "cy, SFU " << sfuLatency
       << "cy, shmem " << sharedMemLatency << "cy, gmem "
       << globalMemLatency << "cy, clock " << clockGhz << " GHz";
    // Appended only when non-default, so the header printed for a
    // flat/no-ECC machine is byte-identical to pre-banked builds.
    if (memModel == MemModel::Banked)
        os << ", mem banked " << memBanks << "x" << memRowBytes
           << "B rows (+" << memRowMissPenalty << "cy miss)";
    if (eccKind != EccKind::None)
        os << ", ecc " << eccKindName(eccKind);
    return os.str();
}

} // namespace arch
} // namespace warped
