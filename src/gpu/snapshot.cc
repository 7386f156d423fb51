#include "gpu/snapshot.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace warped {
namespace gpu {

std::size_t
Snapshot::bytes() const
{
    std::size_t n = sizeof(Snapshot);
    for (const auto &s : sms)
        n += s->bytes();
    if (memSys)
        n += (memSys->partitionFreeAt.size() + memSys->bankFreeAt.size()) *
                 sizeof(Cycle) +
             memSys->openRow.size() * sizeof(Addr);
    return n;
}

void
ActivityLog::note(unsigned sm, Cycle cycle)
{
    if (sm >= sms_.size())
        sms_.resize(sm + 1);
    PerSm &s = sms_[sm];
    if (cycle >= kMaxCycles) {
        s.beyondLo = std::min(s.beyondLo, cycle);
        s.beyondHi = std::max(s.beyondHi, cycle);
        return;
    }
    const std::size_t word = cycle / 64;
    if (word >= s.bits.size())
        s.bits.resize(std::min<std::size_t>(
            std::max(word + 1, 2 * s.bits.size()), kMaxCycles / 64));
    s.bits[word] |= std::uint64_t{1} << (cycle % 64);
}

bool
ActivityLog::quiet(unsigned sm, Cycle lo, Cycle hi) const
{
    if (sm >= sms_.size() || lo > hi)
        return true;
    const PerSm &s = sms_[sm];
    if (s.beyondLo <= s.beyondHi && lo <= s.beyondHi && s.beyondLo <= hi)
        return false;
    const Cycle top = Cycle{s.bits.size()} * 64;
    if (lo >= top)
        return true;
    hi = std::min(hi, top - 1);
    for (std::size_t w = lo / 64; w <= hi / 64; ++w) {
        std::uint64_t m = s.bits[w];
        if (w == lo / 64)
            m &= ~std::uint64_t{0} << (lo % 64);
        if (w == hi / 64)
            m &= ~std::uint64_t{0} >> (63 - hi % 64);
        if (m)
            return false;
    }
    return true;
}

std::size_t
Ladder::rungBytes() const
{
    std::size_t n = 0;
    for (const auto &r : rungs_)
        n += r.bytes;
    return n;
}

std::size_t
Ladder::bytes() const
{
    return rungBytes() +
           (rungs_.empty() ? 0 : rungs_.front().snap.planes->bytes());
}

void
Ladder::thin(Rung *pending)
{
    spacing_ *= 2;
    std::vector<Rung> kept;
    for (auto &old : rungs_)
        if (old.snap.loop.cycle % spacing_ == 0)
            kept.push_back(std::move(old));
    rungs_ = std::move(kept);

    // Re-charge each memory image to the first surviving rung holding
    // it, and drop the register planes only dropped rungs used.
    std::vector<std::vector<std::uint32_t> *> lists;
    const mem::Memory::Span *prev = nullptr;
    const auto recount = [&](Rung &r) {
        r.bytes = r.snap.bytes();
        if (r.snap.dram.get() != prev)
            r.bytes += r.snap.dram->bytes.size();
        prev = r.snap.dram.get();
        for (auto &s : r.snap.sms)
            lists.push_back(&s->planes);
    };
    for (auto &r : rungs_)
        recount(r);
    if (pending && pending->snap.loop.cycle % spacing_ == 0)
        recount(*pending);
    // Shared SM states appear once per rung holding them; renumber
    // each list once.
    std::sort(lists.begin(), lists.end());
    lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
    rungs_.front().snap.planes->compact(lists);
}

void
Ladder::take(Snapshot &&s)
{
    Rung r{std::move(s), 0};
    r.bytes = r.snap.bytes();
    if (rungs_.empty() || r.snap.dram != rungs_.back().snap.dram)
        r.bytes += r.snap.dram->bytes.size();
    for (;;) {
        if (rungs_.empty() ||
            (rungs_.size() < kMaxRungs &&
             rungBytes() + r.bytes + r.snap.planes->bytes() <= kMaxBytes)) {
            rungs_.push_back(std::move(r));
            return;
        }
        // Over a cap: keep every other rung (those on the doubled
        // spacing, rung 0 among them) and retry at the new spacing.
        thin(&r);
        if (r.snap.loop.cycle % spacing_ != 0)
            return;
    }
}

Cycle
Ladder::horizon(Cycle cycle) const
{
    // The bound after the last rise made before this cycle.
    const auto &steps = hook_.steps();
    const auto it = std::partition_point(
        steps.begin(), steps.end(),
        [cycle](const HorizonHook::Step &s) { return s.at < cycle; });
    return it == steps.begin() ? 0 : std::prev(it)->bound;
}

Cycle
Ladder::execFork(Cycle begin) const
{
    // The first rise past begin happened during cycle `at`: every
    // cycle up to `at` still has a horizon of at most begin, and every
    // later one does not.
    const auto &steps = hook_.steps();
    const auto it = std::partition_point(
        steps.begin(), steps.end(),
        [begin](const HorizonHook::Step &s) { return s.bound <= begin; });
    return it == steps.end() ? begin : std::min(begin, it->at);
}

const Snapshot &
Ladder::rungAt(Cycle cycle) const
{
    for (auto it = rungs_.rbegin(); it != rungs_.rend(); ++it)
        if (it->snap.loop.cycle <= cycle)
            return it->snap;
    warped_panic("ladder has no rung 0");
}

} // namespace gpu
} // namespace warped
