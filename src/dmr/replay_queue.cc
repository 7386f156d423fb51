#include "dmr/replay_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace warped {
namespace dmr {

ReplayQueue::ReplayQueue(unsigned capacity, unsigned warp_size)
    : capacity_(capacity), warpSize_(warp_size), slots_(capacity)
{
    book_.writeBit.assign(capacity, 0);
    book_.order.reserve(capacity);
    book_.free.reserve(capacity);
    // Stack of free slots; pop from the back, so seed it in reverse
    // for slot 0 to be handed out first (cosmetic only).
    for (unsigned i = capacity; i-- > 0;)
        book_.free.push_back(i);
}

ReplayQueue::State
ReplayQueue::saveState() const
{
    State s{book_, func::PackedRecords(warpSize_), {}};
    s.records.reserve(book_.order.size());
    s.enqueued.reserve(book_.order.size());
    for (const std::uint32_t slot : book_.order) {
        s.records.append(slots_[slot].rec);
        s.enqueued.push_back(slots_[slot].enqueued);
    }
    return s;
}

void
ReplayQueue::restoreState(const State &s)
{
    if (s.book.writeBit.size() != capacity_)
        warped_panic("ReplayQueue restore across capacities (",
                     s.book.writeBit.size(), " into ", capacity_, ")");
    book_ = s.book;
    for (std::size_t i = 0; i < book_.order.size(); ++i) {
        Entry &e = slots_[book_.order[i]];
        s.records.unpack(i, e.rec);
        e.enqueued = s.enqueued[i];
    }
}

void
ReplayQueue::copyFrom(const ReplayQueue &o)
{
    if (o.capacity_ != capacity_ || o.warpSize_ != warpSize_)
        warped_panic("ReplayQueue copy across capacities or warp widths");
    for (const std::uint32_t slot : o.book_.order) {
        slots_[slot].rec.copyFrom(o.slots_[slot].rec, warpSize_);
        slots_[slot].enqueued = o.slots_[slot].enqueued;
    }
    book_ = o.book_;
}

void
ReplayQueue::push(const func::ExecRecord &rec, Cycle now)
{
    if (full())
        warped_panic("ReplayQueue overflow (capacity ", capacity_, ")");
    const std::uint32_t slot = book_.free.back();
    book_.free.pop_back();
    slots_[slot].rec.copyFrom(rec, warpSize_);
    slots_[slot].enqueued = now;
    book_.writeBit[slot] =
        rec.instr.hasDst() ? 1ULL << rec.instr.dst.idx : 0;
    book_.writeRegMask |= book_.writeBit[slot];
    ++book_.typeCount[static_cast<unsigned>(rec.instr.unit())];
    book_.order.push_back(slot);
    if (recorder_) [[unlikely]]
        recordEvent(trace::EventKind::ReplayPush, rec, book_.order.size(),
                    now);
    book_.peakDepth = std::max(book_.peakDepth,
                               static_cast<unsigned>(book_.order.size()));
}

const ReplayQueue::Entry *
ReplayQueue::take(std::size_t pos, Cycle now)
{
    const std::uint32_t slot = book_.order[pos];
    book_.order.erase(book_.order.begin() + pos);
    book_.free.push_back(slot);
    // Rebuild the hazard fast-reject union (<= capacity_ ORs).
    book_.writeRegMask = 0;
    for (const std::uint32_t s : book_.order)
        book_.writeRegMask |= book_.writeBit[s];
    const Entry &e = slots_[slot];
    --book_.typeCount[static_cast<unsigned>(e.rec.instr.unit())];
    if (recorder_) [[unlikely]]
        recordEvent(trace::EventKind::ReplayPop, e.rec, book_.order.size(),
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
        book_.order.size() - book_.typeCount[static_cast<unsigned>(busy)];
    if (count == 0)
        return nullptr;
    // Oldest-first, or at random: the k-th qualifying entry in
    // oldest-first order (the candidate order the RNG indexes).
    std::size_t k = policy == DequeuePolicy::OldestFirst || count == 1
                        ? 0
                        : rng.nextBelow(count);
    for (std::size_t i = 0; i < book_.order.size(); ++i) {
        if (slots_[book_.order[i]].rec.instr.unit() != busy && k-- == 0)
            return take(i, now);
    }
    warped_panic("popDifferentType: candidate walk out of sync");
}

const ReplayQueue::Entry *
ReplayQueue::popOldest(Cycle now)
{
    if (book_.order.empty())
        return nullptr;
    return take(0, now);
}

const ReplayQueue::Entry *
ReplayQueue::popOldestOfType(isa::UnitType t, Cycle now)
{
    if (book_.typeCount[static_cast<unsigned>(t)] == 0)
        return nullptr;
    for (std::size_t i = 0; i < book_.order.size(); ++i) {
        if (slots_[book_.order[i]].rec.instr.unit() == t)
            return take(i, now);
    }
    return nullptr;
}

const ReplayQueue::Entry *
ReplayQueue::popOldestOfWarp(unsigned warp_id, Cycle now)
{
    for (std::size_t i = 0; i < book_.order.size(); ++i) {
        if (slots_[book_.order[i]].rec.warpId == warp_id)
            return take(i, now);
    }
    return nullptr;
}

unsigned
ReplayQueue::squashWarp(unsigned warp_id, std::uint64_t min_trace_id,
                        Cycle now)
{
    unsigned dropped = 0;
    for (std::size_t i = 0; i < book_.order.size();) {
        const Entry &e = slots_[book_.order[i]];
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
    if ((book_.writeRegMask & reg_read_mask) == 0)
        return false;
    for (const std::uint32_t s : book_.order) {
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
    if ((book_.writeRegMask & reg_read_mask) == 0)
        return nullptr;
    for (std::size_t i = 0; i < book_.order.size(); ++i) {
        const auto &e = slots_[book_.order[i]];
        if (e.rec.warpId == warp_id &&
            writesInMask(e.rec, reg_read_mask)) {
            return take(i, now);
        }
    }
    return nullptr;
}

} // namespace dmr
} // namespace warped
