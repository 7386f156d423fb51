/**
 * @file
 * Memory-cell fault plane: the memory-side counterpart of the
 * register-file FaultInjector.
 *
 * The paper's §1 fault model assumes DRAM is ECC-protected and
 * scopes Warped-DMR to execution faults; this plane models the other
 * side of that assumption so campaigns can measure what the ECC
 * actually absorbs. A campaign arms at most one *upset* — a bit,
 * bit-pair or chip-wide (4-bit) corruption of one stored word,
 * striking at a chosen cycle — and the plane simulates, on every
 * read of that word, what the corrupted codeword would decode to
 * under the configured arch::EccKind:
 *
 *  - the stored bytes themselves stay golden (virtual corruption),
 *    so a correction returns exact data with no state rollback;
 *  - a corrected read scrubs the upset (the controller writes back
 *    the repaired word), so later reads are clean;
 *  - a detected-uncorrectable read raises the sticky `uncorrectable`
 *    flag — a machine check: the campaign's run ends at that read
 *    as a memory DUE;
 *  - with EccKind::None (or a silent alias) the corrupted data
 *    propagates into the pipeline — candidate SDC;
 *  - any write to the word at-or-after the strike re-encodes the
 *    cell and clears the upset; reads before the strike are clean.
 *
 * The plane hangs off the global mem::Memory behind one
 * [[unlikely]] null-pointer test, so fault-free launches never pay
 * for it.
 *
 * A plane with no upset armed can also *record*: every access it is
 * shown lands in a MemAccessLog, which is how a campaign learns from
 * its fault-free pass which upsets can ever be read (docs/
 * FAULT_MODEL.md §6, "Golden access log").
 */

#ifndef WARPED_MEM_MEM_FAULT_HH
#define WARPED_MEM_MEM_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/types.hh"
#include "mem/codec.hh"

namespace warped {
namespace mem {

/** Shape of a memory-cell upset (the campaign's memory-fault axis). */
enum class MemFaultKind
{
    Bit,       ///< single cell: ECC bread and butter
    DoubleBit, ///< adjacent bit pair: SECDED detects, chipkill may fix
    ChipBurst, ///< one 4-bit symbol (a dead chip slice): chipkill territory
};

inline constexpr unsigned kNumMemFaultKinds = 3;

/** Campaign/metrics slug ("membit", "memdouble", "memchip"). */
const char *memFaultKindSlug(MemFaultKind k);

/** What a run did to a word. */
enum class MemAccess : std::uint8_t
{
    None,  ///< nothing
    Read,  ///< a device load, byte load or host readback
    Write, ///< a store or host copy-in
};

/**
 * Golden access log: for every global-memory word, the reads and
 * writes one run made through a recording MemFaultPlane, in call
 * order, compressed to segments of consecutive same-type accesses
 * that keep only their last cycle. Calls arrive in non-decreasing
 * cycle order (the plane's clock only moves forward), so the first
 * access at or after cycle t lies in the first segment whose last
 * cycle is at least t. Covers the words it was built for, from
 * address 0; accesses outside are dropped. Immutable once recorded;
 * any number of threads may query it.
 */
class MemAccessLog
{
  public:
    explicit MemAccessLog(std::size_t words)
        : head_(words, kEnd), tail_(words, kEnd)
    {
    }

    /** Note an access to the word holding byte @p addr at @p now. */
    void note(Addr addr, Cycle now, MemAccess type);

    /** The type of the first access to the word holding byte @p addr
     *  at a cycle >= @p t (the plane's strike rule): None if there is
     *  none, or if the word lies outside the log. */
    MemAccess firstAt(Addr addr, Cycle t) const;

    /** Whether the word holding byte @p addr is in the log. */
    bool covers(Addr addr) const { return addr / 4 < head_.size(); }

    /** Heap bytes held. */
    std::size_t bytes() const;

  private:
    static constexpr std::uint32_t kEnd = ~std::uint32_t{0};

    struct Segment
    {
        Cycle last;
        std::uint32_t next;
        MemAccess type;
    };

    /** Per word: first and last segment index (kEnd: none). */
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> tail_;
    /** One arena for every word's list. */
    std::vector<Segment> segs_;
};

/**
 * Holds one armed upset against a global-memory word and filters
 * reads of that word through the configured ECC codec.
 */
class MemFaultPlane
{
  public:
    explicit MemFaultPlane(arch::EccKind ecc) : ecc_(ecc) {}

    /**
     * What @p ecc makes of a read of a word struck by an upset of
     * @p kind at @p bit: Corrected (and scrubbed), Detected (the
     * uncorrectable flag) or Ok (the corrupt word reaches the lane:
     * a silent alias, or any read with ECC off). The codes are
     * linear, so the answer does not depend on the stored word; this
     * runs the plane's own read path on one.
     */
    static CodecStatus readStatus(arch::EccKind ecc, MemFaultKind kind,
                                  unsigned bit);

    /** Record mode (with no upset armed): note every access the
     *  plane is shown into @p log, or stop with nullptr. */
    void recordInto(MemAccessLog *log) { log_ = log; }

    /** Arm an upset of @p kind at word-aligned byte address
     *  @p word_addr, striking at cycle @p at; @p bit picks the
     *  corrupted bit (Bit), bit pair start (DoubleBit) or any bit of
     *  the corrupted nibble (ChipBurst). */
    void inject(Addr word_addr, MemFaultKind kind, unsigned bit,
                Cycle at);

    /** Advance the plane's notion of simulation time (driven once
     *  per cycle by the launch loop; verify-time host reads keep the
     *  final value, so they see the post-run cell state). */
    void setNow(Cycle now) { now_ = now; }

    /** Filter a word read at @p addr; returns what the load lane
     *  sees. */
    RegValue filterWord(Addr addr, RegValue raw);

    /** Filter a byte read; @p mem_base lets the plane rebuild the
     *  full golden word the byte belongs to. */
    std::uint8_t filterByte(Addr addr, std::uint8_t raw,
                            const std::uint8_t *mem_base);

    /** Patch a bulk copy-out that overlaps the upset word (host
     *  readback goes through the same ECC path as device loads). */
    void patchCopyOut(Addr addr, void *dst, std::size_t n,
                      const std::uint8_t *mem_base);

    /** A store to [addr, addr+n) re-encodes any overlapped word and
     *  clears a struck upset (writes before the strike leave the
     *  pending upset armed: the cell flips later). */
    void onWrite(Addr addr, std::size_t n);

    /** Reads that observed the faulty word (0 => fault never
     *  activated: the run is trivially Masked). */
    std::uint64_t consumedReads() const { return consumedReads_; }
    /** Reads the codec corrected transparently. */
    std::uint64_t corrected() const { return corrected_; }
    /** Reads flagged detected-but-uncorrectable (memory DUE). */
    std::uint64_t uncorrectable() const { return uncorrectable_; }

    arch::EccKind ecc() const { return ecc_; }

    /** Disarm and zero all counters (campaign run reuse). */
    void reset();

  private:
    RegValue applyRead(RegValue raw);
    /** Record mode: note every word [addr, addr+n) overlaps. */
    void noteSpan(Addr addr, std::size_t n, MemAccess type);
    RegValue goldenWord(const std::uint8_t *mem_base) const;

    arch::EccKind ecc_;
    Cycle now_ = 0;

    Addr addr_ = 0;          ///< word-aligned upset address
    MemFaultKind kind_ = MemFaultKind::Bit;
    unsigned bit_ = 0;
    Cycle at_ = 0;           ///< strike cycle
    bool live_ = false;

    std::uint64_t consumedReads_ = 0;
    std::uint64_t corrected_ = 0;
    std::uint64_t uncorrectable_ = 0;

    MemAccessLog *log_ = nullptr; ///< non-owning; record mode only
};

} // namespace mem
} // namespace warped

#endif // WARPED_MEM_MEM_FAULT_HH
