/**
 * @file
 * ReplayQ (paper §4.3): the buffer of unverified fully-utilized warp
 * instructions awaiting temporal DMR.
 *
 * Each entry keeps the opcode, the per-lane source operand values and
 * the per-lane original execution results (§4.3.1: 32 lanes x 3
 * operands x 4B + 32 x 4B results + opcode = 514~516 B/entry, ~5 KB
 * for 10 entries).
 *
 * Storage is a fixed-capacity slot pool allocated once at
 * construction: a FIFO order list of slot indices plus a free-slot
 * stack. The queue sits on the per-issue path of every SM (Algorithm
 * 1 consults it for each instruction), so dequeues shift a few
 * 32-bit indices instead of erasing multi-KB entries, and no pop or
 * push ever allocates.
 */

#ifndef WARPED_DMR_REPLAY_QUEUE_HH
#define WARPED_DMR_REPLAY_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dmr/dmr_config.hh"
#include "func/executor.hh"
#include "trace/recorder.hh"

namespace warped {
namespace dmr {

class ReplayQueue
{
  public:
    struct Entry
    {
        func::ExecRecord rec;
        Cycle enqueued = 0;
    };

    /**
     * @param capacity  entries (paper: 10)
     * @param warp_size machine warp width; pushes copy only this many
     *                  thread slots of each record plane (the rest of
     *                  the kMaxWarp-wide arrays is never read back)
     */
    explicit ReplayQueue(unsigned capacity,
                         unsigned warp_size = func::kMaxWarp);

    unsigned capacity() const { return capacity_; }
    unsigned
    size() const
    {
        return static_cast<unsigned>(book_.order.size());
    }
    bool empty() const { return book_.order.empty(); }
    bool full() const { return book_.order.size() >= capacity_; }

    /** Deepest the queue has ever been (invariant: <= capacity). */
    unsigned peakDepth() const { return book_.peakDepth; }

    /** Emit push/pop events to @p rec on behalf of SM @p sm. */
    void
    attachRecorder(trace::Recorder *rec, unsigned sm)
    {
        recorder_ = rec;
        smId_ = sm;
    }

    /** Enqueue an unverified instruction; caller checks !full(). */
    void push(const func::ExecRecord &rec, Cycle now);

    /**
     * Dequeue an entry whose unit type differs from @p busy — the
     * co-execution candidate of Algorithm 1. When several qualify the
     * pick follows @p policy: at random (paper §4.3) via @p rng, or
     * oldest-first (FIFO ablation).
     *
     * All pop operations return a pointer into the slot pool (or
     * nullptr when nothing qualifies). The entry's slot is released,
     * but its contents stay valid until the next push() — long enough
     * for the engine to verify it without copying the ~2.6 KB record.
     */
    const Entry *popDifferentType(isa::UnitType busy, Rng &rng,
                                  DequeuePolicy policy =
                                      DequeuePolicy::Random,
                                  Cycle now = 0);

    /** Dequeue the oldest entry (idle-cycle and end-of-kernel drain). */
    const Entry *popOldest(Cycle now = 0);

    /**
     * Dequeue the oldest entry of unit type @p t — the opportunistic
     * per-unit drain: a queued instruction is re-executed as soon as
     * its execution unit has an idle issue slot (paper §4.3).
     */
    const Entry *popOldestOfType(isa::UnitType t, Cycle now = 0);

    /**
     * Dequeue the oldest entry of warp @p warp_id regardless of type —
     * the pre-retire drain: a warp about to EXIT or enter a barrier
     * verifies its outstanding instructions first (recovery gating).
     */
    const Entry *popOldestOfWarp(unsigned warp_id, Cycle now = 0);

    /**
     * Drop every queued entry of warp @p warp_id with
     * traceId >= @p min_trace_id. Rollback squash: those issues are
     * being undone and must not be verified against restored state.
     * @return entries dropped.
     */
    unsigned squashWarp(unsigned warp_id, std::uint64_t min_trace_id,
                        Cycle now = 0);

    /**
     * True when some queued entry of warp @p warp_id writes a register
     * in @p regs (bitset over register indices) — the RAW-on-
     * unverified-result hazard that must stall the consumer.
     */
    bool hasRawHazard(unsigned warp_id, std::uint64_t reg_read_mask) const;

    /**
     * Dequeue the oldest entry of @p warp_id writing one of @p regs
     * (hazard resolution: verify the producer first).
     */
    const Entry *popRawHazard(unsigned warp_id,
                              std::uint64_t reg_read_mask,
                              Cycle now = 0);

    /** The queue's bookkeeping: which slots hold entries in which
     *  order, and what the fast rejects and the watermark read. */
    struct Book
    {
        std::vector<std::uint32_t> order; ///< oldest-first slot indices
        std::vector<std::uint32_t> free;  ///< unoccupied slot stack
        /** Per-slot cached destination-register bit (0 when no dst). */
        std::vector<std::uint64_t> writeBit;
        /** Union of destination-register bits over every queued
         *  entry: a one-AND fast reject for the per-issue RAW hazard
         *  probe. */
        std::uint64_t writeRegMask = 0;
        /** Queued entries per unit type: the per-issue unit drain and
         *  the Algorithm-1 partner search reject in O(1) when no entry
         *  can qualify. */
        std::array<unsigned, isa::kNumUnitTypes> typeCount{};
        /** Deepest the queue has ever been. */
        unsigned peakDepth = 0;
    };

    /** The queue's contents at a cycle boundary: the bookkeeping,
     *  plus the occupied entries oldest first, each packed at the
     *  machine's warp width. */
    struct State
    {
        Book book;
        func::PackedRecords records;
        std::vector<Cycle> enqueued;

        std::size_t
        bytes() const
        {
            return sizeof(*this) + records.bytes() +
                   enqueued.size() * sizeof(Cycle) +
                   (book.order.size() + book.free.size()) *
                       sizeof(std::uint32_t) +
                   book.writeBit.size() * sizeof(std::uint64_t);
        }
    };
    State saveState() const;
    /** Replace the contents with @p s (a queue of the same capacity
     *  and warp width), slot numbering included. */
    void restoreState(const State &s);
    /** Make the contents equal to @p o's (a queue of the same
     *  capacity and warp width), slot numbering included; only the
     *  occupied entries' records are copied. */
    void copyFrom(const ReplayQueue &o);

    /** Paper §4.3.1: bytes one entry occupies in hardware. */
    static constexpr std::size_t
    entryBytes(unsigned warp_size)
    {
        return std::size_t{warp_size} * 3 * 4 // source operands
             + std::size_t{warp_size} * 4     // original results
             + 2;                             // opcode
    }

  private:
    static bool writesInMask(const func::ExecRecord &rec,
                             std::uint64_t reg_read_mask);

    /** Remove the entry at FIFO position @p pos (index into the
     *  order list), emitting the ReplayPop event. The slot is
     *  returned to the free pool but its contents stay valid until
     *  the next push. */
    const Entry *take(std::size_t pos, Cycle now);

    /** Cold path: build + record a push/pop event (recorder_ set);
     *  @p depth_after is the queue depth after the operation. */
    [[gnu::noinline]]
    void recordEvent(trace::EventKind kind, const func::ExecRecord &rec,
                     std::uint64_t depth_after, Cycle now);

    unsigned capacity_;
    unsigned warpSize_; ///< plane slots copied per push
    std::vector<Entry> slots_; ///< fixed pool, sized capacity_
    Book book_;
    trace::Recorder *recorder_ = nullptr;
    unsigned smId_ = 0;
};

} // namespace dmr
} // namespace warped

#endif // WARPED_DMR_REPLAY_QUEUE_HH
