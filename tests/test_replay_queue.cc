/**
 * @file
 * Unit tests: the ReplayQ (§4.3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "dmr/replay_queue.hh"

using namespace warped;
using dmr::ReplayQueue;

namespace {

func::ExecRecord
rec(isa::Opcode op, unsigned warp_id = 0, unsigned dst = 0)
{
    func::ExecRecord r;
    r.instr.op = op;
    r.instr.dst = isa::Reg{static_cast<RegIndex>(dst)};
    r.warpId = warp_id;
    r.active = LaneMask::full(32);
    return r;
}

} // namespace

TEST(ReplayQueue, CapacityAndFifoOrder)
{
    ReplayQueue q(3);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    q.push(rec(isa::Opcode::IADD, 1), 10);
    q.push(rec(isa::Opcode::IMUL, 2), 11);
    q.push(rec(isa::Opcode::FADD, 3), 12);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.size(), 3u);
    const auto *e = q.popOldest();
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.warpId, 1u);
    EXPECT_EQ(e->enqueued, 10u);
}

TEST(ReplayQueue, ZeroCapacityIsAlwaysFull)
{
    ReplayQueue q(0);
    EXPECT_TRUE(q.full());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.popOldest(), nullptr);
}

TEST(ReplayQueue, OverflowPanics)
{
    setVerbose(false);
    ReplayQueue q(1);
    q.push(rec(isa::Opcode::IADD), 0);
    EXPECT_THROW(q.push(rec(isa::Opcode::IADD), 1), std::logic_error);
}

TEST(ReplayQueue, PopDifferentTypeSkipsBusyUnit)
{
    ReplayQueue q(4);
    Rng rng(1);
    q.push(rec(isa::Opcode::IADD), 0);  // SP
    q.push(rec(isa::Opcode::LDG), 1);   // LDST
    // Busy unit is LDST: only the SP entry qualifies.
    const auto *e = q.popDifferentType(isa::UnitType::LDST, rng);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.instr.op, isa::Opcode::IADD);
    // Now only the LDST entry remains: nothing differs from LDST.
    EXPECT_EQ(q.popDifferentType(isa::UnitType::LDST, rng), nullptr);
    EXPECT_EQ(q.size(), 1u);
}

TEST(ReplayQueue, PopDifferentTypeRandomPickIsFromCandidates)
{
    // With several qualifying entries, the random pick must always
    // return one whose type differs from the busy unit.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ReplayQueue q(4);
        Rng rng(seed);
        q.push(rec(isa::Opcode::IADD), 0);
        q.push(rec(isa::Opcode::SIN), 1);
        q.push(rec(isa::Opcode::LDG), 2);
        const auto *e = q.popDifferentType(isa::UnitType::SP, rng);
        ASSERT_NE(e, nullptr);
        EXPECT_NE(e->rec.instr.unit(), isa::UnitType::SP);
    }
}

TEST(ReplayQueue, PopOldestOfType)
{
    ReplayQueue q(4);
    q.push(rec(isa::Opcode::IADD, 1), 0);
    q.push(rec(isa::Opcode::LDG, 2), 1);
    q.push(rec(isa::Opcode::IMUL, 3), 2);
    const auto *e = q.popOldestOfType(isa::UnitType::SP);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.warpId, 1u); // oldest SP entry
    EXPECT_EQ(q.popOldestOfType(isa::UnitType::SFU), nullptr);
}

TEST(ReplayQueue, RawHazardMatchesWarpAndRegister)
{
    ReplayQueue q(4);
    q.push(rec(isa::Opcode::IADD, /*warp*/ 2, /*dst*/ 5), 0);

    // Same warp reading r5: hazard.
    EXPECT_TRUE(q.hasRawHazard(2, 1ULL << 5));
    // Same warp reading other registers: no hazard.
    EXPECT_FALSE(q.hasRawHazard(2, 1ULL << 6));
    // Different warp reading r5: no hazard.
    EXPECT_FALSE(q.hasRawHazard(3, 1ULL << 5));

    const auto *e = q.popRawHazard(2, 1ULL << 5);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(q.empty());
}

TEST(ReplayQueue, StoresDontCreateRawHazards)
{
    ReplayQueue q(4);
    auto r = rec(isa::Opcode::STG, 1);
    q.push(r, 0);
    EXPECT_FALSE(q.hasRawHazard(1, ~0ULL));
}

TEST(ReplayQueue, OldestFirstPolicyDequeuesInFifoOrder)
{
    // Dequeue-order semantics must not depend on the storage layout:
    // under OldestFirst, popDifferentType always returns the oldest
    // qualifying entry, across interleaved pushes and pops.
    ReplayQueue q(4);
    Rng rng(7);
    q.push(rec(isa::Opcode::SIN, 1), 0);  // SFU
    q.push(rec(isa::Opcode::IADD, 2), 1); // SP
    q.push(rec(isa::Opcode::LDG, 3), 2);  // LDST
    q.push(rec(isa::Opcode::COS, 4), 3);  // SFU

    const auto *e =
        q.popDifferentType(isa::UnitType::SP, rng,
                           dmr::DequeuePolicy::OldestFirst);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.warpId, 1u); // oldest non-SP

    // Interleave: refill the freed slot, order must stay FIFO.
    q.push(rec(isa::Opcode::EX2, 5), 4); // SFU, newest
    e = q.popDifferentType(isa::UnitType::SP, rng,
                           dmr::DequeuePolicy::OldestFirst);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.warpId, 3u); // LDST entry, still before warp 4

    e = q.popDifferentType(isa::UnitType::SP, rng,
                           dmr::DequeuePolicy::OldestFirst);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.warpId, 4u);
    e = q.popDifferentType(isa::UnitType::SP, rng,
                           dmr::DequeuePolicy::OldestFirst);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.warpId, 5u);
    // Only the SP entry is left.
    EXPECT_EQ(q.popDifferentType(isa::UnitType::SP, rng,
                                 dmr::DequeuePolicy::OldestFirst),
              nullptr);
    EXPECT_EQ(q.size(), 1u);
}

TEST(ReplayQueue, RandomPolicyMatchesRngOverCandidateList)
{
    // The random pick indexes an oldest-first candidate list with one
    // Rng draw: nextBelow(#candidates). Replicate with an identically
    // seeded Rng to pin the dequeue order exactly.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ReplayQueue q(4);
        Rng rng(seed), model(seed);
        q.push(rec(isa::Opcode::IADD, 0), 0); // SP (never qualifies)
        q.push(rec(isa::Opcode::SIN, 1), 1);  // candidate 0
        q.push(rec(isa::Opcode::LDG, 2), 2);  // candidate 1
        q.push(rec(isa::Opcode::COS, 3), 3);  // candidate 2

        const unsigned expect3[] = {1, 2, 3};
        const auto *e = q.popDifferentType(isa::UnitType::SP, rng);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->rec.warpId, expect3[model.nextBelow(3)]);
        const unsigned first = e->rec.warpId;

        std::uint64_t remaining[2];
        unsigned n = 0;
        for (unsigned w = 1; w <= 3; ++w)
            if (w != first)
                remaining[n++] = w;
        e = q.popDifferentType(isa::UnitType::SP, rng);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->rec.warpId, remaining[model.nextBelow(2)]);

        // A single candidate is returned without consuming the Rng.
        e = q.popDifferentType(isa::UnitType::SP, rng);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(rng.nextBelow(1000), model.nextBelow(1000));
    }
}

TEST(ReplayQueue, PoppedEntryStaysValidUntilNextPush)
{
    // The engine verifies a popped entry and only then enqueues the
    // pending instruction; the pointer contract backs that order.
    ReplayQueue q(2);
    q.push(rec(isa::Opcode::SIN, 7), 0);
    const auto *e = q.popOldest();
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rec.warpId, 7u);
    EXPECT_EQ(e->rec.instr.op, isa::Opcode::SIN);
    q.push(rec(isa::Opcode::IADD, 8), 1);
    // After the push the slot may be reused; no expectations on *e.
}

TEST(ReplayQueue, EntryBytesMatchesPaperArithmetic)
{
    // §4.3.1: 32 lanes x 3 operands x 4B + 32 x 4B + 2B opcode.
    EXPECT_EQ(ReplayQueue::entryBytes(32), 514u);
    EXPECT_GE(ReplayQueue::entryBytes(32) * 10, 5140u);
}

namespace {

/** What a never-saved queue must answer: a plain list scan. */
struct ModelEntry
{
    isa::UnitType unit;
    unsigned warp;
    std::uint64_t traceId;
    bool clean;
};

} // namespace

TEST(ReplayQueue, TypeQueriesSurviveRestoreAndInterleavedTraffic)
{
    // Random push / per-type pop / partner pop / squash traffic. One
    // queue is never saved; the other is saved and restored into a
    // queue holding stale entries before every operation. Both must
    // give the answers of a plain scan over a model list, so the
    // per-type counts behind the O(1) rejects are rebuilt on restore
    // and kept exact by take(). Restored entries keep their clean bit.
    const isa::Opcode ops[] = {isa::Opcode::IADD, isa::Opcode::SIN,
                               isa::Opcode::LDG};
    const isa::UnitType units[] = {isa::UnitType::SP, isa::UnitType::SFU,
                                   isa::UnitType::LDST};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        Rng plain_pick(seed), cycled_pick(seed), model_pick(seed);
        ReplayQueue plain(5), cycled(5);
        std::vector<ModelEntry> model;
        std::uint64_t next_id = 1;

        const auto expect_entry = [&](const ReplayQueue::Entry *e,
                                      const ModelEntry *m) {
            ASSERT_EQ(e != nullptr, m != nullptr);
            if (m) {
                EXPECT_EQ(e->rec.traceId, m->traceId);
                EXPECT_EQ(e->rec.instr.unit(), m->unit);
                EXPECT_EQ(e->rec.clean, m->clean);
            }
        };

        for (unsigned step = 0; step < 300; ++step) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                         std::to_string(step));
            ReplayQueue stale(5);
            stale.push(rec(isa::Opcode::SIN, 9), 0);
            stale.push(rec(isa::Opcode::SIN, 9), 0);
            stale.restoreState(cycled.saveState());
            cycled = stale;

            const unsigned t = static_cast<unsigned>(rng.nextBelow(3));
            switch (rng.nextBelow(5)) {
              case 0:
              case 1: {
                if (plain.full())
                    break;
                auto r = rec(ops[t], static_cast<unsigned>(rng.nextBelow(3)));
                r.traceId = next_id++;
                r.clean = rng.nextBool();
                plain.push(r, step);
                cycled.push(r, step);
                model.push_back({units[t], r.warpId, r.traceId, r.clean});
                break;
              }
              case 2: {
                const ModelEntry *m = nullptr;
                ModelEntry hit{};
                for (std::size_t i = 0; i < model.size(); ++i) {
                    if (model[i].unit == units[t]) {
                        hit = model[i];
                        model.erase(model.begin() + i);
                        m = &hit;
                        break;
                    }
                }
                expect_entry(plain.popOldestOfType(units[t]), m);
                expect_entry(cycled.popOldestOfType(units[t]), m);
                break;
              }
              case 3: {
                const auto policy = rng.nextBool()
                                        ? dmr::DequeuePolicy::Random
                                        : dmr::DequeuePolicy::OldestFirst;
                std::vector<std::size_t> cands;
                for (std::size_t i = 0; i < model.size(); ++i)
                    if (model[i].unit != units[t])
                        cands.push_back(i);
                const ModelEntry *m = nullptr;
                ModelEntry hit{};
                if (!cands.empty()) {
                    const std::size_t k =
                        policy == dmr::DequeuePolicy::OldestFirst ||
                                cands.size() == 1
                            ? 0
                            : model_pick.nextBelow(cands.size());
                    hit = model[cands[k]];
                    model.erase(model.begin() + cands[k]);
                    m = &hit;
                }
                expect_entry(plain.popDifferentType(units[t], plain_pick,
                                                    policy),
                             m);
                expect_entry(cycled.popDifferentType(units[t],
                                                     cycled_pick, policy),
                             m);
                break;
              }
              default: {
                const auto warp = static_cast<unsigned>(rng.nextBelow(3));
                const std::uint64_t min_id =
                    next_id - std::min<std::uint64_t>(next_id,
                                                      rng.nextBelow(4));
                unsigned dropped = 0;
                for (std::size_t i = 0; i < model.size();) {
                    if (model[i].warp == warp && model[i].traceId >= min_id) {
                        model.erase(model.begin() + i);
                        ++dropped;
                    } else {
                        ++i;
                    }
                }
                EXPECT_EQ(plain.squashWarp(warp, min_id), dropped);
                EXPECT_EQ(cycled.squashWarp(warp, min_id), dropped);
                break;
              }
            }
            ASSERT_EQ(plain.size(), model.size());
            ASSERT_EQ(cycled.size(), model.size());
        }
    }
}
