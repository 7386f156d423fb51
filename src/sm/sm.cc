#include "sm/sm.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "common/logging.hh"
#include "protection/scheme_registry.hh"

namespace warped {
namespace sm {

Sm::Sm(const arch::GpuConfig &cfg, const dmr::DmrConfig &dmr,
       unsigned sm_id, const isa::Program &prog, mem::Memory &global,
       func::FaultHook &hook, std::uint64_t seed,
       mem::MemorySystem *mem_sys, const recovery::RecoveryConfig &rcfg,
       const protection::SchemeConfig &scfg)
    : cfg_(cfg), memSys_(mem_sys), smId_(sm_id), prog_(prog),
      global_(global),
      exec_(cfg, sm_id, global, hook),
      scheme_(protection::makeScheme(scfg, cfg, dmr, exec_,
                                     seed + sm_id * 0x9e3779b9ULL)),
      scoreboard_(cfg.maxThreadsPerSm / cfg.warpSize, prog.numRegs()),
      stats_(cfg.warpSize, prog.numRegs()),
      maxWarps_(cfg.maxThreadsPerSm / cfg.warpSize),
      warps_(maxWarps_), warpState_(maxWarps_, kWarpEmpty),
      warpPc_(maxWarps_, 0),
      warpBlockSlot_(maxWarps_, -1),
      blocks_(cfg.maxBlocksPerSm)
{
    stats_.traceLimit = cfg.traceIssueLimit;
    stats_.trackIdleGaps = cfg.trackIdleGaps;
    if (rcfg.enabled) {
        recovery_ = std::make_unique<recovery::RecoveryManager>(
            rcfg, sm_id, maxWarps_);
        scheme_->attachRecoveryListener(recovery_.get());
    }
}

bool
Sm::canAcceptBlock(unsigned block_threads) const
{
    const unsigned need_warps = cfg_.warpsPerBlock(block_threads);
    if (vars_.residentThreads + block_threads > cfg_.maxThreadsPerSm)
        return false;

    bool free_block = false;
    for (const auto &b : blocks_) {
        if (!b.active) {
            free_block = true;
            break;
        }
    }
    if (!free_block)
        return false;

    if (maxWarps_ - vars_.residentWarps < need_warps)
        return false;

    unsigned shared_in_use = 0;
    for (const auto &b : blocks_) {
        if (b.active && b.shared)
            shared_in_use += b.shared->size();
    }
    return shared_in_use + prog_.sharedBytes() <= cfg_.sharedMemBytes;
}

void
Sm::assignBlock(unsigned block_id, unsigned block_threads,
                unsigned grid_dim)
{
    if (!canAcceptBlock(block_threads))
        warped_panic("assignBlock on a full SM");
    ++mutations_;

    unsigned slot = 0;
    while (blocks_[slot].active)
        ++slot;

    BlockSlot &b = blocks_[slot];
    b.active = true;
    b.blockId = block_id;
    b.warpSlots.clear();
    // At least one word so shared-memory-free kernels still have a
    // valid segment object. A segment retained from a retired block
    // is recycled (the program's shared size never changes within an
    // SM, so after the first block this is a clear(), not an
    // allocation).
    const std::size_t shared_bytes =
        prog_.sharedBytes() ? prog_.sharedBytes() : 4u;
    if (b.shared && b.shared->size() == shared_bytes)
        b.shared->clear();
    else
        b.shared = std::make_unique<mem::Memory>(shared_bytes);

    const unsigned need_warps = cfg_.warpsPerBlock(block_threads);
    unsigned assigned = 0;
    for (unsigned w = 0; w < maxWarps_ && assigned < need_warps; ++w) {
        if (warpState_[w] != kWarpEmpty)
            continue;
        if (warps_[w]) {
            // Pooled context from a retired block: reuse its register
            // backing store in place.
            warps_[w]->reinit(block_id, assigned, block_threads,
                              block_threads, grid_dim);
        } else {
            warps_[w].emplace(cfg_.warpSize, prog_.numRegs(), block_id,
                              assigned, block_threads, block_threads,
                              grid_dim);
        }
        scoreboard_.resetWarp(w);
        if (recovery_)
            recovery_->resetWarp(w);
        warpBlockSlot_[w] = static_cast<int>(slot);
        warpState_[w] = warps_[w]->finished() ? kWarpFinished
                                              : kWarpReady;
        warpPc_[w] = 0;
        vars_.scanLimit = std::max(vars_.scanLimit, w + 1);
        b.warpSlots.push_back(w);
        ++assigned;
        ++vars_.residentWarps;
    }
    b.liveWarps = 0;
    for (unsigned w : b.warpSlots)
        if (warpState_[w] != kWarpFinished)
            ++b.liveWarps;
    b.barrierWaiters = 0;
    vars_.residentThreads += block_threads;
}

void
Sm::releaseBarriers()
{
    // A block's barrier opens when every live (non-finished) warp
    // has arrived; the counters make the per-tick check O(blocks).
    for (auto &b : blocks_) {
        if (!b.active || b.barrierWaiters == 0 ||
            b.barrierWaiters != b.liveWarps) {
            continue;
        }
        for (unsigned w : b.warpSlots) {
            if (warpState_[w] == kWarpBarrier) {
                warps_[w]->setAtBarrier(false);
                warpState_[w] = kWarpReady;
            }
        }
        b.barrierWaiters = 0;
        --vars_.barrierBlocks;
    }
}

void
Sm::retireIfDone(unsigned block_slot)
{
    BlockSlot &b = blocks_[block_slot];
    for (unsigned w : b.warpSlots) {
        if (warps_[w] && !warps_[w]->finished())
            return;
    }
    unsigned threads = 0;
    for (unsigned w : b.warpSlots) {
        if (warps_[w])
            threads += warps_[w]->validLanes().count();
        // The context object stays behind as a pooled free slot
        // (kWarpEmpty); assignBlock reinits it in place.
        warpState_[w] = kWarpEmpty;
        warpBlockSlot_[w] = -1;
        scoreboard_.resetWarp(w);
        --vars_.residentWarps;
    }
    while (vars_.scanLimit > 0 &&
           warpState_[vars_.scanLimit - 1] == kWarpEmpty)
        --vars_.scanLimit;
    vars_.residentThreads -= threads;
    b.active = false;
    // b.shared is kept for recycling by the next assignBlock.
    b.warpSlots.clear();
    ++stats_.blocksRetired;
}

unsigned
Sm::bankConflictCycles(const isa::Instruction &in) const
{
    if (!cfg_.modelBankConflicts)
        return 0;
    // Sources hitting the same bank (register index mod 4) serialize
    // into extra register-fetch cycles.
    unsigned bank_uses[4] = {0, 0, 0, 0};
    for (unsigned s = 0; s < in.numSrcs(); ++s)
        ++bank_uses[in.src[s].idx % 4];
    unsigned worst = 0;
    for (unsigned b = 0; b < 4; ++b)
        worst = std::max(worst, bank_uses[b]);
    return worst > 1 ? worst - 1 : 0;
}

Cycle
Sm::writebackTime(const isa::Instruction &in, Cycle now) const
{
    unsigned lat;
    if (in.isMem()) {
        lat = isa::opcodeIsSharedMem(in.op) ? cfg_.sharedMemLatency
                                            : cfg_.globalMemLatency;
    } else if (in.unit() == isa::UnitType::SFU) {
        lat = cfg_.sfuLatency;
    } else {
        lat = cfg_.spLatency;
    }
    return now + cfg_.rfStages + bankConflictCycles(in) + lat;
}

void
Sm::recordIssue(const func::ExecRecord &rec, Cycle now)
{
    const unsigned active = rec.active.count();
    const unsigned type = static_cast<unsigned>(rec.instr.unit());

    ++stats_.issuedWarpInstrs;
    stats_.issuedThreadInstrs += active;
    stats_.activeCountHist.add(active);
    ++stats_.unitIssues[type];
    stats_.unitThreadExecs[type] += active;
    stats_.typeRuns.observe(type);

    if (stats_.trackIdleGaps) {
        // Lane-granular gaps: a lane is busy this cycle iff the
        // issued instruction's (mapped) mask covers it.
        const LaneMask lanes =
            scheme_->mapping().toLaneSpace(rec.active);
        for (unsigned l = 0; l < cfg_.warpSize; ++l) {
            if (lanes.test(l)) {
                if (stats_.laneIdleRun[l] > 0) {
                    stats_.laneIdleGap.add(
                        double(stats_.laneIdleRun[l]));
                    stats_.laneIdleRun[l] = 0;
                }
            } else {
                ++stats_.laneIdleRun[l];
            }
        }
    }

    if (stats_.trace.size() < stats_.traceLimit) {
        TraceEvent ev;
        ev.cycle = now;
        ev.sm = smId_;
        ev.warp = rec.warpId;
        ev.pc = rec.pc;
        ev.instr = rec.instr;
        ev.activeCount = active;
        stats_.trace.push_back(ev);
    }

    if (recorder_) [[unlikely]]
        traceIssue(rec, active, now);

    if (stats_.trackRawDistance &&
        rec.warpId == stats_.trackedWarpSlot &&
        rec.active.test(stats_.trackedThreadSlot)) {
        const auto &in = rec.instr;
        for (unsigned s = 0; s < in.numSrcs(); ++s)
            stats_.rawDistance.onRead(in.src[s].idx, now);
        if (in.hasDst())
            stats_.rawDistance.onWrite(in.dst.idx, now);
    }
}

void
Sm::traceIssue(const func::ExecRecord &rec, unsigned active, Cycle now)
{
    trace::Event ev;
    ev.cycle = now;
    ev.kind = trace::EventKind::Issue;
    ev.unit = static_cast<std::uint8_t>(rec.instr.unit());
    ev.warp = rec.warpId;
    ev.pc = rec.pc;
    ev.a0 = rec.traceId;
    ev.a1 = active;
    recorder_->record(smId_, ev);
}

void
Sm::traceCommit(const func::ExecRecord &rec, const isa::Instruction &in,
                Cycle ready, Cycle now)
{
    // Only instructions that produce a result (or touch memory) have
    // a writeback to commit.
    if (!in.hasDst() && !in.isMem())
        return;
    trace::Event ev;
    ev.cycle = ready;
    ev.kind = trace::EventKind::Commit;
    ev.unit = static_cast<std::uint8_t>(in.unit());
    ev.warp = rec.warpId;
    ev.pc = rec.pc;
    ev.a0 = rec.traceId;
    ev.a1 = ready - now;
    recorder_->record(smId_, ev);
}

Sm::IssueOutcome
Sm::tryIssue(unsigned warp_slot, Cycle now, isa::UnitType &unit_out)
{
    // Schedulability and PC come from the mirrored planes: a losing
    // candidate (scoreboard not ready, port busy) is rejected without
    // ever touching the multi-KB WarpContext object.
    if (warpState_[warp_slot] != kWarpReady)
        return IssueOutcome::None;
    if (recovery_ && recovery_->blocked(warp_slot, now))
        return IssueOutcome::None; // post-rollback penalty window

    const isa::Instruction &in = prog_.at(warpPc_[warp_slot]);
    if (!scoreboard_.ready(warp_slot, in, now))
        return IssueOutcome::None;
    if (cfg_.modelCoalescing && in.isMem() &&
        !isa::opcodeIsSharedMem(in.op) && now < vars_.ldstPortFreeAt) {
        return IssueOutcome::None; // LD/ST port still draining
    }

    // Recovery gating: a warp may not EXIT or enter a barrier while
    // any of its instructions is still unverified — otherwise a later
    // mismatch could not be rolled back (the final stores would have
    // retired) and a rollback could cross a barrier. The stall cycle
    // verifies one outstanding record, so the gate drains in bounded
    // time; a pending rollback resolves on the next tick.
    if (recovery_ &&
        (in.op == isa::Opcode::BAR || in.op == isa::Opcode::EXIT) &&
        recovery_->hasUnverified(warp_slot)) [[unlikely]] {
        recovery_->countRetireStall();
        scheme_->preRetireVerify(warp_slot, now);
        vars_.lastProgress = now;
        return IssueOutcome::Stalled; // cycle consumed
    }

    // RAW hazard against an unverified ReplayQ result: the pipeline
    // stalls for a cycle while the producer is verified.
    if (scheme_->rawHazardStall(warp_slot, in, now)) {
        ++stats_.stallCyclesRaw;
        vars_.lastProgress = now;
        return IssueOutcome::Stalled; // cycle consumed
    }
    unit_out = in.unit();

    auto &warp = warps_[warp_slot];
    const int block_slot = warpBlockSlot_[warp_slot];
    mem::Memory &shared = *blocks_[block_slot].shared;

    // Execute into the engine's scratch record: no 2.6 KB
    // zero-initialization per issue, and onIssue can adopt it as the
    // pending RF-stage instruction without copying.
    func::ExecRecord &rec = scheme_->scratch();
    std::vector<func::MemUndo> *undo = nullptr;
    if (recovery_) [[unlikely]]
        undo = recovery_->beginDelta(warp_slot, *warp, in, now);
    exec_.stepInto(*warp, prog_, shared, scheme_->mapping().laneTable(),
                   now, rec, undo);
    rec.warpId = warp_slot;
    rec.traceId = (std::uint64_t{smId_} << 40) | ++vars_.issueSeq;
    if (recovery_) [[unlikely]]
        recovery_->commitDelta(warp_slot, rec);

    unsigned extra_mem_cycles = 0;
    Cycle contended_ready = 0;
    const bool global_mem =
        in.isMem() && !isa::opcodeIsSharedMem(in.op);
    if (global_mem && (cfg_.modelCoalescing || memSys_)) {
        // One transaction per distinct memory segment the warp hits,
        // kept sorted and deduplicated on the stack (ascending, the
        // order the memory system services them in).
        std::array<Addr, func::kMaxWarp> segs;
        unsigned n = 0;
        for (unsigned slot = 0; slot < cfg_.warpSize; ++slot) {
            if (!rec.active.test(slot))
                continue;
            const Addr seg = rec.results[slot] / cfg_.coalesceSegmentBytes;
            Addr *const end = segs.data() + n;
            Addr *const at = std::lower_bound(segs.data(), end, seg);
            if (at != end && *at == seg)
                continue;
            std::copy_backward(at, end, end + 1);
            *at = seg;
            ++n;
        }
        if (cfg_.modelCoalescing) {
            extra_mem_cycles = n > 1 ? n - 1 : 0;
            vars_.ldstPortFreeAt = now + 1 + extra_mem_cycles;
        }
        if (memSys_)
            contended_ready =
                memSys_->access(now, {segs.data(), n}) + cfg_.rfStages;
    }

    const Cycle ready = std::max(writebackTime(in, now) +
                                     extra_mem_cycles,
                                 contended_ready);
    scoreboard_.issue(warp_slot, in, ready);
    recordIssue(rec, now);
    if (recorder_) [[unlikely]]
        traceCommit(rec, in, ready, now);
    ++stats_.busyCycles;

    const unsigned stall = scheme_->onIssue(rec, now);
    vars_.stallCycles += stall;
    stats_.stallCyclesDmr += stall;

    // Mirror the executed warp's new schedulability and PC.
    if (warp->finished()) {
        warpState_[warp_slot] = kWarpFinished;
        --blocks_[block_slot].liveWarps;
        retireIfDone(block_slot);
    } else {
        warpPc_[warp_slot] = warp->stack().pc();
        if (warp->atBarrier()) {
            warpState_[warp_slot] = kWarpBarrier;
            if (blocks_[block_slot].barrierWaiters++ == 0)
                ++vars_.barrierBlocks;
        }
    }

    vars_.lastScheduled = warp_slot;
    vars_.lastProgress = now;
    return IssueOutcome::Issued;
}

void
Sm::tick(Cycle now)
{
    ++mutations_;
    ++stats_.cycles;

    if (vars_.stallCycles > 0) {
        --vars_.stallCycles;
        return;
    }

    // A comparator mismatch filed a rollback request: restoring the
    // warp consumes this whole cycle (one rollback per tick keeps the
    // restore deterministic and models the squash cost).
    if (recovery_ && recovery_->hasPendingRollback()) [[unlikely]] {
        const int w = recovery_->nextPendingWarp();
        if (w < 0 || !warps_[static_cast<unsigned>(w)])
            warped_panic("SM ", smId_, ": rollback request for an "
                         "empty warp slot ", w);
        const auto wu = static_cast<unsigned>(w);
        recovery_->rollback(wu, *warps_[wu], *scheme_, now);
        // Whether restored or given up, the warp is schedulable again
        // (the retire gate kept it from ever reaching barrier/finish
        // with unverified work).
        if (warps_[wu]->finished()) {
            warpState_[wu] = kWarpFinished;
        } else {
            warpState_[wu] = kWarpReady;
            warpPc_[wu] = warps_[wu]->stack().pc();
        }
        vars_.lastProgress = now;
        return;
    }

    if (vars_.barrierBlocks > 0)
        releaseBarriers();

    // Up to numSchedulers issues per cycle, each from a different
    // warp. With multiple schedulers each has private SP units, but
    // the LD/ST units and SFUs are shared (paper §2.2), so at most
    // one instruction per shared unit type issues per cycle.
    unsigned progress = 0;
    bool ldst_used = false, sfu_used = false;
    // Fix the scan base up front: tryIssue advances vars_.lastScheduled,
    // and re-reading it mid-scan could revisit an already-issued warp.
    // LRR resumes after the last issued warp; GTO retries the same
    // warp first (greedy) and then falls back to slot order (oldest).
    const bool gto =
        cfg_.schedPolicy == arch::SchedPolicy::GreedyThenOldest;
    // Scan only up to the highest occupied slot. For LRR the base is
    // clamped below the limit (retirement may have shrunk it past
    // vars_.lastScheduled); cyclic order over the occupied slots is
    // unchanged because none sits at or above vars_.scanLimit.
    const unsigned limit = vars_.scanLimit;
    const unsigned base = gto ? vars_.lastScheduled
                              : std::min(vars_.lastScheduled,
                                         limit > 0 ? limit - 1 : 0);
    const unsigned scan_len = gto ? limit + 1 : limit;
    for (unsigned i = 1;
         i <= scan_len && progress < cfg_.numSchedulers; ++i) {
        const unsigned w = gto ? (i == 1 ? base : i - 2)
                               : (base + i) % (limit > 0 ? limit : 1);
        if (warpState_[w] != kWarpReady)
            continue;
        if (cfg_.numSchedulers > 1) {
            const auto unit = prog_.at(warpPc_[w]).unit();
            if (unit == isa::UnitType::LDST && ldst_used)
                continue;
            if (unit == isa::UnitType::SFU && sfu_used)
                continue;
        }
        isa::UnitType unit = isa::UnitType::SP;
        const auto outcome = tryIssue(w, now, unit);
        if (outcome == IssueOutcome::None)
            continue;
        ++progress;
        if (outcome == IssueOutcome::Stalled || vars_.stallCycles > 0)
            break; // a pipeline stall ends this cycle's issue group
        if (unit == isa::UnitType::LDST)
            ldst_used = true;
        else if (unit == isa::UnitType::SFU)
            sfu_used = true;
    }
    if (stats_.trackIdleGaps) {
        if (progress > 0) {
            if (stats_.smIdleRun > 0) {
                stats_.smIdleGap.add(double(stats_.smIdleRun));
                stats_.smIdleRun = 0;
            }
        } else {
            ++stats_.smIdleRun;
        }
    }

    if (progress > 0)
        return;

    // Nothing issued: every unit is idle; the DMR engine may drain a
    // pending verification for free.
    if (stats_.trackIdleGaps) {
        for (unsigned l = 0; l < cfg_.warpSize; ++l)
            ++stats_.laneIdleRun[l];
    }
    scheme_->onIdleCycle(now, busy());

    if (busy() && now - vars_.lastProgress > 1000000)
        warped_panic("SM ", smId_, " made no progress for 1M cycles: "
                     "barrier deadlock or scoreboard bug (pc ",
                     "unknown)");
}

std::size_t
Sm::State::bytes() const
{
    std::size_t n = sizeof(State) + warps.size() * sizeof(Warp) +
                    stacks.size() * sizeof(arch::SimtStack::Entry) +
                    stats.trace.size() * sizeof(TraceEvent) +
                    undoTargets.size() * sizeof(unsigned) +
                    stats.rawDistance.bytes();
    n += planes.size() * sizeof(std::uint32_t) +
         pending.size() * sizeof(Pending);
    for (const Block &b : blocks)
        n += sizeof(Block) + b.warpSlots.size() * sizeof(unsigned) +
             b.shared->bytes.size();
    if (scheme)
        n += scheme->bytes();
    if (recovery)
        n += recovery->ring().bytes();
    return n;
}

std::shared_ptr<Sm::State>
Sm::saveState(PlaneStore &planes, Cycle now)
{
    // Planes cached from the previous capture are reusable only in
    // the same store, uncompacted since.
    const bool cached =
        capturedInto_ == &planes && capturedGen_ == planes.generation();
    if (cached && captured_ && capturedAt_ == mutations_)
        return captured_;
    auto sp = std::make_shared<State>(stats_);
    State &s = *sp;
    const unsigned regs = scoreboard_.numRegs();
    capturedPlanes_.resize(std::size_t{maxWarps_} * regs);
    capturedShared_.resize(blocks_.size());
    capturedInto_ = &planes;
    capturedGen_ = planes.generation();
    // takeWritten below forgets this SM's writes: a fork partner can
    // no longer rely on them.
    pairedWith_ = nullptr;
    s.warps.reserve(vars_.residentWarps);
    s.stacks.reserve(std::size_t{vars_.residentWarps} * 4);
    s.planes.reserve(std::size_t{vars_.residentWarps} * regs);
    for (unsigned w = 0; w < vars_.scanLimit; ++w) {
        if (warpState_[w] == kWarpEmpty)
            continue;
        arch::WarpContext &ctx = *warps_[w];
        const auto &stack = ctx.stack().entries();
        s.warps.push_back({w, warpState_[w], warpPc_[w], warpBlockSlot_[w],
                           static_cast<unsigned>(stack.size()),
                           ctx.header()});
        s.stacks.insert(s.stacks.end(), stack.begin(), stack.end());
        std::uint64_t written = ctx.takeWritten();
        if (!cached)
            written = ~std::uint64_t{0};
        std::uint32_t *idx = capturedPlanes_.data() + std::size_t{w} * regs;
        for (unsigned r = 0; r < regs; ++r) {
            const auto reg = static_cast<RegIndex>(r);
            if (written & arch::WarpContext::regBit(reg))
                idx[r] = planes.add(std::as_const(ctx).regPlane(reg));
        }
        const auto at = static_cast<std::uint32_t>(s.planes.size());
        s.planes.insert(s.planes.end(), idx, idx + regs);
        const Cycle *row = scoreboard_.row(w);
        for (unsigned r = 0; r < regs; ++r)
            if (row[r] > now)
                s.pending.push_back({at + r, row[r]});
    }
    for (unsigned k = 0; k < blocks_.size(); ++k) {
        const BlockSlot &b = blocks_[k];
        if (!b.active)
            continue;
        // A block's shared memory often outlives several captures
        // unchanged (tiles are rewritten once per phase): share it.
        CapturedShared &c = capturedShared_[k];
        if (!c.span || c.of != b.shared.get() ||
            c.epoch != b.shared->writeEpoch()) {
            c.span = std::make_shared<const mem::Memory::Span>(
                b.shared->saveSpan());
            c.of = b.shared.get();
            c.epoch = b.shared->writeEpoch();
        }
        s.blocks.push_back({b, k, b.shared->size(), c.span});
    }
    s.scheme = scheme_->saveState();
    if (recovery_) {
        s.recovery.emplace(*recovery_);
        s.recovery->ring().forEachUndo([&](func::MemUndo &u) {
            unsigned target = 0;
            if (u.mem != &global_) {
                while (target < blocks_.size() &&
                       blocks_[target].shared.get() != u.mem)
                    ++target;
                if (target == blocks_.size())
                    warped_panic("SM ", smId_, ": recovery undo entry "
                                 "names an unknown memory");
                ++target;
            }
            s.undoTargets.push_back(target);
            u.mem = nullptr;
        });
    }
    s.vars = vars_;
    captured_ = sp;
    capturedAt_ = mutations_;
    return sp;
}

void
Sm::restoreState(const State &s, const PlaneStore &planes)
{
    if (!s.recovery != !recovery_)
        warped_panic("SM ", smId_, ": snapshot of a different machine");
    // Whatever this SM ran before, neither its capture cache nor a
    // fork partner describes it any more.
    forgetCapture();
    pairedWith_ = nullptr;

    // Empty every warp slot and scoreboard row; the snapshot's
    // resident warps then refill theirs. An empty slot's row is
    // already zero (retirement and assignment clear it), so only the
    // occupied slots' rows need clearing. Pooled contexts stay for
    // reuse, as after block retirement.
    const unsigned regs = scoreboard_.numRegs();
    const unsigned ws = cfg_.warpSize;
    for (unsigned w = 0; w < maxWarps_; ++w)
        if (warpState_[w] != kWarpEmpty)
            scoreboard_.resetWarp(w);
    std::fill(warpState_.begin(), warpState_.end(), kWarpEmpty);
    std::fill(warpPc_.begin(), warpPc_.end(), Pc{0});
    std::fill(warpBlockSlot_.begin(), warpBlockSlot_.end(), -1);
    const arch::SimtStack::Entry *stack = s.stacks.data();
    for (std::size_t i = 0; i < s.warps.size(); ++i) {
        const State::Warp &sw = s.warps[i];
        auto &ctx = warps_[sw.slot];
        if (!ctx)
            ctx.emplace(ws, prog_.numRegs(), 0, 0, ws, ws, 1);
        ctx->restoreHeader(sw.header);
        ctx->stack().assign(stack, stack + sw.stackDepth);
        stack += sw.stackDepth;
        warpState_[sw.slot] = sw.state;
        warpPc_[sw.slot] = sw.pc;
        warpBlockSlot_[sw.slot] = sw.blockSlot;
        for (unsigned r = 0; r < regs; ++r)
            std::copy_n(planes.plane(s.planes[i * regs + r]), ws,
                        ctx->regPlane(static_cast<RegIndex>(r)));
    }
    for (const State::Pending &p : s.pending)
        scoreboard_.row(s.warps[p.at / regs].slot)[p.at % regs] =
            p.readyAt;
    // Likewise every block slot; retired slots keep their shared
    // segment for assignBlock to recycle.
    for (BlockSlot &b : blocks_)
        static_cast<BlockVars &>(b) = BlockVars{};
    for (const State::Block &sb : s.blocks) {
        BlockSlot &b = blocks_[sb.slot];
        static_cast<BlockVars &>(b) = sb;
        if (!b.shared || b.shared->size() != sb.sharedBytes)
            b.shared = std::make_unique<mem::Memory>(sb.sharedBytes);
        b.shared->restoreSpan(*sb.shared);
    }
    stats_ = s.stats;
    s.scheme->restoreInto(*scheme_);
    if (recovery_) {
        *recovery_ = *s.recovery;
        recovery_->attachRecorder(recorder_);
        std::size_t i = 0;
        recovery_->ring().forEachUndo([&](func::MemUndo &u) {
            const unsigned t = s.undoTargets[i++];
            u.mem = t == 0 ? &global_ : blocks_[t - 1].shared.get();
            if (!u.mem)
                warped_panic("SM ", smId_, ": recovery undo entry "
                             "names a retired block's shared memory");
        });
    }
    vars_ = s.vars;
}

void
Sm::forgetCapture()
{
    ++mutations_;
    captured_.reset();
    capturedInto_ = nullptr;
    std::fill(capturedShared_.begin(), capturedShared_.end(),
              CapturedShared{});
}

std::uint64_t
Sm::copyFrom(Sm &o)
{
    if (!o.recovery_ != !recovery_ || o.maxWarps_ != maxWarps_ ||
        o.blocks_.size() != blocks_.size() ||
        o.scoreboard_.numRegs() != scoreboard_.numRegs())
        warped_panic("SM ", smId_, ": fork from a different machine");
    // Since the pair's previous fork, every register either SM wrote
    // is in its warps' write bits, unless something else consumed
    // them (saveState, restoreState, a fork with another partner).
    const bool paired = pairedWith_ == &o && o.pairedWith_ == this;
    pairedWith_ = &o;
    o.pairedWith_ = this;
    forgetCapture();
    o.forgetCapture();

    const unsigned regs = scoreboard_.numRegs();
    const unsigned ws = cfg_.warpSize;
    std::uint64_t copied = 0;
    warpState_ = o.warpState_;
    warpPc_ = o.warpPc_;
    warpBlockSlot_ = o.warpBlockSlot_;
    for (unsigned w = 0; w < o.vars_.scanLimit; ++w) {
        if (o.warpState_[w] == kWarpEmpty)
            continue;
        arch::WarpContext &g = *o.warps_[w];
        auto &ctx = warps_[w];
        std::uint64_t planes = g.takeWritten();
        if (paired && ctx)
            planes |= ctx->takeWritten();
        else
            planes = ~std::uint64_t{0};
        if (!ctx)
            ctx.emplace(ws, prog_.numRegs(), 0, 0, ws, ws, 1);
        ctx->copyFrom(g, planes);
        for (unsigned r = 0; r < regs; ++r)
            if (planes & arch::WarpContext::regBit(static_cast<RegIndex>(r)))
                ++copied;
    }
    scoreboard_ = o.scoreboard_;

    forkedShared_.resize(blocks_.size());
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
        BlockSlot &b = blocks_[k];
        const BlockSlot &gb = o.blocks_[k];
        static_cast<BlockVars &>(b) = gb;
        if (!gb.active)
            continue;
        const mem::Memory &gs = *gb.shared;
        if (!b.shared || b.shared->size() != gs.size())
            b.shared = std::make_unique<mem::Memory>(gs.size());
        ForkedShared &f = forkedShared_[k];
        if (!paired || f.golden != &gs || f.goldenEpoch != gs.writeEpoch() ||
            f.site != b.shared.get() ||
            f.siteEpoch != b.shared->writeEpoch()) {
            b.shared->copyFrom(gs);
            f = {&gs, b.shared.get(), gs.writeEpoch(),
                 b.shared->writeEpoch()};
        }
    }

    stats_ = o.stats_;
    scheme_->copyFrom(*o.scheme_);
    if (recovery_) {
        *recovery_ = *o.recovery_;
        recovery_->attachRecorder(recorder_);
        // The copied undo entries name the golden SM's memories.
        recovery_->ring().forEachUndo([&](func::MemUndo &u) {
            if (u.mem == &o.global_) {
                u.mem = &global_;
                return;
            }
            std::size_t k = 0;
            while (k < blocks_.size() && o.blocks_[k].shared.get() != u.mem)
                ++k;
            u.mem = k < blocks_.size() ? blocks_[k].shared.get() : nullptr;
            if (!u.mem)
                warped_panic("SM ", smId_, ": recovery undo entry names "
                             "an unknown memory");
        });
    }
    vars_ = o.vars_;
    return copied;
}

} // namespace sm
} // namespace warped
