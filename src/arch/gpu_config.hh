/**
 * @file
 * GPU configuration: the paper's Table 3 baseline plus pipeline
 * latencies matching Fig 7.
 */

#ifndef WARPED_ARCH_GPU_CONFIG_HH
#define WARPED_ARCH_GPU_CONFIG_HH

#include <string>

namespace warped {
namespace arch {

/** Warp scheduling policy of the per-SM scheduler(s). */
enum class SchedPolicy
{
    LooseRoundRobin, ///< resume scanning after the last issued warp
    GreedyThenOldest, ///< stick with one warp until it stalls (GTO)
};

/**
 * Global-memory organization. Flat is the paper's model (fixed
 * latency, no structure); Banked adds a DRAM bank/row model behind
 * the mem::MemorySystem seam: transactions queue per bank and pay a
 * row-activation penalty on open-row misses.
 */
enum class MemModel
{
    Flat,   ///< fixed-latency byte array (the paper's §1 model)
    Banked, ///< per-bank open-row DRAM timing via MemorySystem
};

/**
 * ECC codec protecting global-memory words against cell upsets
 * (mem::MemFaultPlane decides what a memory-side fault decodes to).
 * None leaves upsets to propagate raw; Secded is the classic
 * (39,32)+parity Hamming used by GPU DRAM; Chipkill corrects any
 * single 4-bit symbol (one DRAM chip's slice) and detects two.
 */
enum class EccKind
{
    None,
    Secded,
    Chipkill,
};

/** CLI slug for a memory model ("flat", "banked"). */
const char *memModelName(MemModel m);

/** CLI slug for an ECC codec ("none", "secded", "chipkill"). */
const char *eccKindName(EccKind k);

/**
 * Static hardware parameters of the simulated GPGPU.
 *
 * Defaults model the paper's baseline (NVIDIA Fermi-style): 30 SMs,
 * 32-wide SIMT, 4-lane SIMT clusters, in-order single-scheduler SMs,
 * 800 MHz core clock (1.25 ns cycle).
 */
struct GpuConfig
{
    unsigned numSms = 30;           ///< streaming multiprocessors
    unsigned warpSize = 32;         ///< threads per warp (Table 3)
    unsigned lanesPerCluster = 4;   ///< SIMT-cluster width (§2.1, [8])
    unsigned maxThreadsPerSm = 1024; ///< resident-thread limit (Table 3)
    unsigned maxBlocksPerSm = 8;    ///< resident-block limit
    unsigned sharedMemBytes = 64 * 1024;    ///< per SM (§2.1)

    /**
     * Warp schedulers per SM. The paper's baseline is 1 (§2.2); 2
     * models the Fermi/Kepler arrangement where the two schedulers
     * have private SP groups but share the LD/ST and SFU units —
     * reducing the heterogeneous-unit idleness inter-warp DMR feeds
     * on (the paper's own caveat, evaluated by bench/ablation).
     */
    unsigned numSchedulers = 1;

    /** Warp pick order (ablation: GTO and LRR shape the issue
     *  stream's same-type runs differently — LRR convoys the
     *  barrier-aligned phases of many warps, GTO interleaves one
     *  warp's phases; LRR is the paper-era default). */
    SchedPolicy schedPolicy = SchedPolicy::LooseRoundRobin;

    /**
     * Model register-bank conflicts (paper §2.1): each SIMT cluster
     * has four banks holding register r of its four lanes in bank
     * r % 4; an instruction whose source registers collide in one
     * bank pays one extra register-fetch cycle (the operand-buffering
     * "most of the time" caveat made concrete). Off by default to
     * keep the Fig-7 fixed-latency RF of the baseline model.
     */
    bool modelBankConflicts = false;

    // Pipeline latencies (Fig 7): FETCH 1, DEC/SCHED 1, RF 3, EXE 3+.
    unsigned rfStages = 3;          ///< register-fetch stages
    unsigned spLatency = 4;         ///< SP execute latency (cycles)
    unsigned sfuLatency = 16;       ///< SFU execute latency
    unsigned sharedMemLatency = 24; ///< LD/ST latency, shared memory
    unsigned globalMemLatency = 200; ///< LD/ST latency, global memory

    double clockGhz = 0.8;          ///< 800 MHz -> 1.25 ns cycle (§4.1)

    unsigned globalMemBytes = 64u * 1024u * 1024u; ///< simulated DRAM

    /** Track idle-gap length distributions at SM and SP granularity
     *  (the §3.4 power-gating argument). Off by default: it costs a
     *  per-lane update every cycle. */
    bool trackIdleGaps = false;

    /** Record the first N issue events per SM into the launch result
     *  (0 = tracing off). Debugging aid; see warped_sim --trace. */
    unsigned traceIssueLimit = 0;

    /**
     * Structured cycle-level tracing (src/trace): when set, the
     * launch owns a trace::Recorder, every pipeline seam (issue,
     * commit, DMR decisions, ReplayQ traffic, dispatch) emits
     * trace::Events, and the merged stream lands in
     * LaunchResult::events. Off by default: disabled tracing costs
     * one null-pointer test per seam.
     */
    bool traceEvents = false;

    /**
     * Per-SM event ring capacity when traceEvents is set: the ring
     * keeps the most recent N events and counts drops
     * (trace.dropped). 0 = unbounded — what the golden-trace and
     * invariant suites use so the ledger sees every event.
     */
    unsigned traceRingCapacity = 0;

    /**
     * Model global-memory coalescing (off by default — the paper's
     * fixed-latency LD/ST model): a warp's global access is split
     * into one transaction per distinct coalesceSegmentBytes-sized
     * segment, and the LD/ST issue port stays busy one cycle per
     * transaction, so scattered (pointer-chasing) access patterns
     * serialize behind each other.
     */
    bool modelCoalescing = false;
    unsigned coalesceSegmentBytes = 128;

    /**
     * Model memory-partition contention (off by default): global
     * transactions are interleaved across memoryPartitions partitions
     * by segment address; each partition services one transaction per
     * memoryServicePeriod cycles, so bandwidth-bound kernels queue.
     * Composes with modelCoalescing (which decides how many
     * transactions a warp access generates).
     */
    bool modelMemContention = false;
    unsigned memoryPartitions = 6;
    unsigned memoryServicePeriod = 2;

    /**
     * Global-memory organization (default Flat — the paper's fixed-
     * latency model, byte-identical to builds that predate the
     * banked model). Banked routes every global access through the
     * chip MemorySystem with per-bank open-row timing: a transaction
     * to a bank's open row costs globalMemLatency, switching rows
     * adds memRowMissPenalty, and each bank services one transaction
     * per memoryServicePeriod cycles.
     */
    MemModel memModel = MemModel::Flat;
    unsigned memBanks = 8;          ///< DRAM banks (Banked model)
    unsigned memRowBytes = 2048;    ///< DRAM row (page) size per bank
    unsigned memRowMissPenalty = 60; ///< extra cycles on a row switch

    /**
     * ECC codec on global-memory words (default None). Decides how a
     * memory-cell upset injected by a fault campaign decodes on
     * read: corrected transparently (EccCorrected), flagged as a
     * detected-uncorrectable error (DUE), or passed through silently
     * (candidate SDC). Purely a fault-model knob: it has zero effect
     * on fault-free runs.
     */
    EccKind eccKind = EccKind::None;

    /** Whether launches route global accesses through a chip-level
     *  MemorySystem (contention and/or banked timing). */
    bool
    usesMemorySystem() const
    {
        return modelMemContention || memModel == MemModel::Banked;
    }

    /** Cycle period in nanoseconds. */
    double cyclePeriodNs() const { return 1.0 / clockGhz; }

    /** Warps per fully-populated thread block of @p block_threads. */
    unsigned
    warpsPerBlock(unsigned block_threads) const
    {
        return (block_threads + warpSize - 1) / warpSize;
    }

    /** SIMT clusters per warp. */
    unsigned
    clustersPerWarp() const
    {
        return warpSize / lanesPerCluster;
    }

    /** The paper's Table 3 machine. */
    static GpuConfig paperDefault();

    /** A small machine for fast unit tests (2 SMs, short memories). */
    static GpuConfig testDefault();

    /** Sanity-check parameter combinations; warped_fatal on nonsense. */
    void validate() const;

    /** Human-readable parameter dump (bench headers). */
    std::string toString() const;
};

} // namespace arch
} // namespace warped

#endif // WARPED_ARCH_GPU_CONFIG_HH
