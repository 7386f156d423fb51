#include "dmr/replay_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace warped {
namespace dmr {

ReplayQueue::ReplayQueue(unsigned capacity, unsigned warp_size)
    : capacity_(capacity), warpSize_(warp_size), slots_(capacity),
      writeBit_(capacity, 0)
{
    order_.reserve(capacity);
    free_.reserve(capacity);
    // Stack of free slots; pop from the back, so seed it in reverse
    // for slot 0 to be handed out first (cosmetic only).
    for (unsigned i = capacity; i-- > 0;)
        free_.push_back(i);
}

ReplayQueue::State
ReplayQueue::saveState() const
{
    State s{func::PackedRecords(warpSize_), {}, peakDepth_};
    s.records.reserve(order_.size());
    s.enqueued.reserve(order_.size());
    for (const std::uint32_t slot : order_) {
        s.records.append(slots_[slot].rec);
        s.enqueued.push_back(slots_[slot].enqueued);
    }
    return s;
}

void
ReplayQueue::restoreState(const State &s)
{
    if (s.records.size() > capacity_)
        warped_panic("ReplayQueue restore of ", s.records.size(),
                     " entries into capacity ", capacity_);
    order_.clear();
    free_.clear();
    for (unsigned i = capacity_; i-- > 0;)
        free_.push_back(i);
    writeRegMask_ = 0;
    typeCount_.fill(0);
    for (std::size_t i = 0; i < s.records.size(); ++i) {
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        s.records.unpack(i, slots_[slot].rec);
        slots_[slot].enqueued = s.enqueued[i];
        const isa::Instruction &in = s.records.instr(i);
        writeBit_[slot] = in.hasDst() ? 1ULL << in.dst.idx : 0;
        writeRegMask_ |= writeBit_[slot];
        ++typeCount_[static_cast<unsigned>(in.unit())];
        order_.push_back(slot);
    }
    peakDepth_ = s.peakDepth;
}

void
ReplayQueue::copyFrom(const ReplayQueue &o)
{
    if (o.capacity_ != capacity_ || o.warpSize_ != warpSize_)
        warped_panic("ReplayQueue copy across capacities or warp widths");
    for (const std::uint32_t slot : o.order_) {
        slots_[slot].rec.copyFrom(o.slots_[slot].rec, warpSize_);
        slots_[slot].enqueued = o.slots_[slot].enqueued;
    }
    order_ = o.order_;
    free_ = o.free_;
    writeBit_ = o.writeBit_;
    writeRegMask_ = o.writeRegMask_;
    typeCount_ = o.typeCount_;
    peakDepth_ = o.peakDepth_;
}

void
ReplayQueue::push(const func::ExecRecord &rec, Cycle now)
{
    if (full())
        warped_panic("ReplayQueue overflow (capacity ", capacity_, ")");
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot].rec.copyFrom(rec, warpSize_);
    slots_[slot].enqueued = now;
    writeBit_[slot] =
        rec.instr.hasDst() ? 1ULL << rec.instr.dst.idx : 0;
    writeRegMask_ |= writeBit_[slot];
    ++typeCount_[static_cast<unsigned>(rec.instr.unit())];
    order_.push_back(slot);
    if (recorder_) [[unlikely]]
        recordEvent(trace::EventKind::ReplayPush, rec, order_.size(),
                    now);
    peakDepth_ = std::max(peakDepth_,
                          static_cast<unsigned>(order_.size()));
}

const ReplayQueue::Entry *
ReplayQueue::take(std::size_t pos, Cycle now)
{
    const std::uint32_t slot = order_[pos];
    order_.erase(order_.begin() + pos);
    free_.push_back(slot);
    // Rebuild the hazard fast-reject union (<= capacity_ ORs).
    writeRegMask_ = 0;
    for (const std::uint32_t s : order_)
        writeRegMask_ |= writeBit_[s];
    const Entry &e = slots_[slot];
    --typeCount_[static_cast<unsigned>(e.rec.instr.unit())];
    if (recorder_) [[unlikely]]
        recordEvent(trace::EventKind::ReplayPop, e.rec, order_.size(),
                    now);
    return &e;
}

void
ReplayQueue::recordEvent(trace::EventKind kind,
                         const func::ExecRecord &rec,
                         std::uint64_t depth_after, Cycle now)
{
    trace::Event ev;
    ev.cycle = now;
    ev.kind = kind;
    ev.unit = static_cast<std::uint8_t>(rec.instr.unit());
    ev.warp = rec.warpId;
    ev.pc = rec.pc;
    ev.a0 = rec.traceId;
    ev.a1 = depth_after;
    recorder_->record(smId_, ev);
}

const ReplayQueue::Entry *
ReplayQueue::popDifferentType(isa::UnitType busy, Rng &rng,
                              DequeuePolicy policy, Cycle now)
{
    // The per-type count says how many entries qualify without a walk.
    const std::size_t count =
        order_.size() - typeCount_[static_cast<unsigned>(busy)];
    if (count == 0)
        return nullptr;
    // Oldest-first, or at random: the k-th qualifying entry in
    // oldest-first order (the candidate order the RNG indexes).
    std::size_t k = policy == DequeuePolicy::OldestFirst || count == 1
                        ? 0
                        : rng.nextBelow(count);
    for (std::size_t i = 0; i < order_.size(); ++i) {
        if (slots_[order_[i]].rec.instr.unit() != busy && k-- == 0)
            return take(i, now);
    }
    warped_panic("popDifferentType: candidate walk out of sync");
}

const ReplayQueue::Entry *
ReplayQueue::popOldest(Cycle now)
{
    if (order_.empty())
        return nullptr;
    return take(0, now);
}

const ReplayQueue::Entry *
ReplayQueue::popOldestOfType(isa::UnitType t, Cycle now)
{
    if (typeCount_[static_cast<unsigned>(t)] == 0)
        return nullptr;
    for (std::size_t i = 0; i < order_.size(); ++i) {
        if (slots_[order_[i]].rec.instr.unit() == t)
            return take(i, now);
    }
    return nullptr;
}

const ReplayQueue::Entry *
ReplayQueue::popOldestOfWarp(unsigned warp_id, Cycle now)
{
    for (std::size_t i = 0; i < order_.size(); ++i) {
        if (slots_[order_[i]].rec.warpId == warp_id)
            return take(i, now);
    }
    return nullptr;
}

unsigned
ReplayQueue::squashWarp(unsigned warp_id, std::uint64_t min_trace_id,
                        Cycle now)
{
    unsigned dropped = 0;
    for (std::size_t i = 0; i < order_.size();) {
        const Entry &e = slots_[order_[i]];
        if (e.rec.warpId == warp_id && e.rec.traceId >= min_trace_id) {
            take(i, now); // emits ReplayPop; slot returns to the pool
            ++dropped;
        } else {
            ++i;
        }
    }
    return dropped;
}

bool
ReplayQueue::writesInMask(const func::ExecRecord &rec,
                          std::uint64_t reg_read_mask)
{
    if (!rec.instr.hasDst())
        return false;
    return (reg_read_mask >> rec.instr.dst.idx) & 1ULL;
}

bool
ReplayQueue::hasRawHazard(unsigned warp_id,
                          std::uint64_t reg_read_mask) const
{
    if ((writeRegMask_ & reg_read_mask) == 0)
        return false;
    for (const std::uint32_t s : order_) {
        const auto &e = slots_[s];
        if (e.rec.warpId == warp_id && writesInMask(e.rec, reg_read_mask))
            return true;
    }
    return false;
}

const ReplayQueue::Entry *
ReplayQueue::popRawHazard(unsigned warp_id, std::uint64_t reg_read_mask,
                          Cycle now)
{
    if ((writeRegMask_ & reg_read_mask) == 0)
        return nullptr;
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const auto &e = slots_[order_[i]];
        if (e.rec.warpId == warp_id &&
            writesInMask(e.rec, reg_read_mask)) {
            return take(i, now);
        }
    }
    return nullptr;
}

} // namespace dmr
} // namespace warped
