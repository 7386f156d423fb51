/**
 * @file
 * Counters the Warped-DMR engine exposes: the raw material for the
 * coverage (Fig 9a), overhead (Fig 9b) and power (Fig 11) figures.
 */

#ifndef WARPED_DMR_DMR_STATS_HH
#define WARPED_DMR_DMR_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace warped {
namespace dmr {

/** Arbitration verdict for a detected error (extension). */
enum class ErrorVerdict : std::uint8_t
{
    None,         ///< arbitration disabled
    PrimaryBad,   ///< third run sided with the checker
    CheckerBad,   ///< third run sided with the original execution
    Inconclusive, ///< three distinct values
};

/** A detected execution error (comparator mismatch). */
struct ErrorEvent
{
    Cycle cycle = 0;
    unsigned sm = 0;
    unsigned warpId = 0;
    Pc pc = 0;
    unsigned slot = 0;         ///< thread slot within the warp
    unsigned primaryLane = 0;  ///< physical lane of the original run
    unsigned checkerLane = 0;  ///< physical lane of the verification
    RegValue primary = 0;
    RegValue checker = 0;
    bool intraWarp = false;
    ErrorVerdict verdict = ErrorVerdict::None;
};

struct DmrStats
{
    // Coverage accounting (thread-level executions of verifiable
    // instructions, i.e. those producing a result or an address).
    std::uint64_t verifiableThreadInstrs = 0;
    std::uint64_t verifiedThreadInstrs = 0;
    std::uint64_t intraVerifiedThreads = 0;
    std::uint64_t interVerifiedThreads = 0;

    // Warp-level classification of verifiable instructions.
    std::uint64_t intraWarpInstrs = 0; ///< partially-utilized warps
    std::uint64_t interWarpInstrs = 0; ///< fully-utilized warps

    // Inter-warp DMR mechanics.
    std::uint64_t coexecVerifications = 0;
    std::uint64_t dequeueVerifications = 0;
    std::uint64_t idleDrainVerifications = 0;
    std::uint64_t unitDrainVerifications = 0; ///< idle-unit-slot drains
    std::uint64_t enqueues = 0;
    std::uint64_t eagerStalls = 0;   ///< ReplayQ full -> 1-cycle stall
    std::uint64_t rawStalls = 0;     ///< RAW on unverified result
    std::uint64_t finalDrainCycles = 0;
    std::uint64_t replayQPeak = 0;   ///< deepest ReplayQ occupancy

    // Redundant thread-executions per unit type (power model input).
    std::array<std::uint64_t, isa::kNumUnitTypes> redundantThreadExecs{};

    // Comparator activity & outcomes.
    std::uint64_t comparisons = 0;
    std::uint64_t errorsDetected = 0;

    // Error-arbitration extension (third execution, majority vote).
    std::uint64_t arbitrations = 0;
    std::uint64_t arbPrimaryBad = 0;
    std::uint64_t arbCheckerBad = 0;
    std::uint64_t arbInconclusive = 0;

    // Sampling extension: issue slots that went unprotected because
    // the duty cycle was off.
    std::uint64_t sampledOutThreadInstrs = 0;
    std::vector<ErrorEvent> errorLog; ///< first kMaxErrorLog events

    static constexpr std::size_t kMaxErrorLog = 64;

    /** Add @p o's counters into these; the ReplayQ peak takes the
     *  larger. The error log is the caller's to merge. */
    void
    addCounters(const DmrStats &o)
    {
        verifiableThreadInstrs += o.verifiableThreadInstrs;
        verifiedThreadInstrs += o.verifiedThreadInstrs;
        intraVerifiedThreads += o.intraVerifiedThreads;
        interVerifiedThreads += o.interVerifiedThreads;
        intraWarpInstrs += o.intraWarpInstrs;
        interWarpInstrs += o.interWarpInstrs;
        coexecVerifications += o.coexecVerifications;
        dequeueVerifications += o.dequeueVerifications;
        idleDrainVerifications += o.idleDrainVerifications;
        unitDrainVerifications += o.unitDrainVerifications;
        enqueues += o.enqueues;
        eagerStalls += o.eagerStalls;
        rawStalls += o.rawStalls;
        finalDrainCycles += o.finalDrainCycles;
        replayQPeak = std::max(replayQPeak, o.replayQPeak);
        for (std::size_t u = 0; u < redundantThreadExecs.size(); ++u)
            redundantThreadExecs[u] += o.redundantThreadExecs[u];
        comparisons += o.comparisons;
        errorsDetected += o.errorsDetected;
        arbitrations += o.arbitrations;
        arbPrimaryBad += o.arbPrimaryBad;
        arbCheckerBad += o.arbCheckerBad;
        arbInconclusive += o.arbInconclusive;
        sampledOutThreadInstrs += o.sampledOutThreadInstrs;
    }

    /** §3.3 / Fig 9a error-coverage metric. */
    double
    coverage() const
    {
        if (verifiableThreadInstrs == 0)
            return 1.0;
        return double(verifiedThreadInstrs) /
               double(verifiableThreadInstrs);
    }
};

/**
 * §4.1 synthesis results, recorded from the paper (Synopsys Design
 * Compiler, 40 nm): documentation constants surfaced by the bench
 * harness, not inputs to any model.
 */
struct HardwareCost
{
    static constexpr double kRfuAreaUm2 = 390.0;
    static constexpr double kComparatorAreaUm2 = 622.0;
    static constexpr double kRfuDelayNs = 0.08;
    static constexpr double kComparatorDelayNs = 0.068;
    static constexpr double kCyclePeriodNs = 1.25; // 800 MHz
};

} // namespace dmr
} // namespace warped

#endif // WARPED_DMR_DMR_STATS_HH
