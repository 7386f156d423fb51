#include "dmr/dmr_engine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "dmr/recovery_listener.hh"
#include "dmr/rfu.hh"

namespace warped {
namespace dmr {

DmrEngine::DmrEngine(const arch::GpuConfig &gpu, const DmrConfig &cfg,
                     func::Executor &exec, std::uint64_t seed)
    : gpu_(gpu), cfg_(cfg), exec_(exec),
      mapping_(cfg.mapping, gpu.warpSize, gpu.lanesPerCluster),
      queue_(cfg.replayQSize, gpu.warpSize), vars_{Rng(seed), {}, false}
{
    // Counted intra-warp verification reads the RFU pairing of each
    // cluster occupancy from a table instead of resolving the MUX
    // network per record. Widths the RFU rejects get no table: their
    // records take the per-slot path, which panics as before.
    const unsigned w = gpu.lanesPerCluster;
    if (w <= Rfu::kMaxWidth && std::has_single_bit(w)) {
        clusterCounts_.resize(std::size_t{1} << w);
        std::array<unsigned, Rfu::kMaxWidth> verifies;
        for (std::uint64_t bits = 0; bits < clusterCounts_.size(); ++bits) {
            const std::uint64_t covered = Rfu::pair(bits, w, verifies);
            ClusterCounts &n = clusterCounts_[bits];
            n.covered = static_cast<std::uint8_t>(std::popcount(covered));
            n.checkers = static_cast<std::uint8_t>(
                std::count_if(verifies.begin(), verifies.end(),
                              [](unsigned v) { return v != Rfu::kNone; }));
        }
    }
}

std::size_t
DmrEngine::State::bytes() const
{
    return sizeof(State) + queue.bytes() + pending.bytes() +
           vars.stats.errorLog.size() * sizeof(ErrorEvent);
}

DmrEngine::State
DmrEngine::saveStateValue() const
{
    State s{queue_.saveState(), func::PackedRecords(gpu_.warpSize), vars_};
    if (vars_.hasPending)
        s.pending.append(pendingRec());
    return s;
}

void
DmrEngine::restoreState(const State &s)
{
    queue_.restoreState(s.queue);
    vars_ = s.vars;
    if (vars_.hasPending)
        s.pending.unpack(0, pendingRec());
}

std::unique_ptr<protection::SchemeState>
DmrEngine::saveState() const
{
    return std::make_unique<protection::SchemeStateOf<DmrEngine, State>>(
        id(), saveStateValue());
}

void
DmrEngine::copyFrom(const protection::ProtectionScheme &o)
{
    const auto &e = protection::sameScheme<const DmrEngine>(id(), o);
    queue_.copyFrom(e.queue_);
    vars_ = e.vars_;
    if (vars_.hasPending)
        pendingRec().copyFrom(e.pendingRec(), gpu_.warpSize);
}

void
DmrEngine::attachRecorder(trace::Recorder *rec)
{
    recorder_ = rec;
    queue_.attachRecorder(rec, exec_.smId());
}

void
DmrEngine::recordEvent(trace::EventKind kind, const func::ExecRecord &rec,
                       Cycle now, std::uint64_t a1)
{
    trace::Event ev;
    ev.cycle = now;
    ev.kind = kind;
    ev.unit = static_cast<std::uint8_t>(rec.instr.unit());
    ev.warp = rec.warpId;
    ev.pc = rec.pc;
    ev.a0 = rec.traceId;
    ev.a1 = a1;
    recorder_->record(exec_.smId(), ev);
}

std::uint64_t
DmrEngine::readMaskOf(const isa::Instruction &in)
{
    std::uint64_t mask = 0;
    for (unsigned s = 0; s < in.numSrcs(); ++s)
        mask |= 1ULL << in.src[s].idx;
    return mask;
}

bool
DmrEngine::rawHazardStall(unsigned warp_id, const isa::Instruction &next,
                          Cycle now)
{
    if (!cfg_.enabled || !cfg_.interWarp)
        return false;
    const std::uint64_t reads = readMaskOf(next);
    if (reads == 0)
        return false;
    const auto *producer = queue_.popRawHazard(warp_id, reads, now);
    if (!producer)
        return false;
    // The pipeline stalls this cycle; the freed units verify the
    // producer so the consumer can go next cycle.
    emit(trace::EventKind::RawStall, producer->rec, now, reads);
    interWarpVerify(producer->rec, now);
    ++vars_.stats.rawStalls;
    return true;
}

unsigned
DmrEngine::onIssue(const func::ExecRecord &rec, Cycle now)
{
    if (!cfg_.enabled)
        return 0;

    // The Replay Checker first decides the fate of the instruction
    // one cycle ahead in the RF stage (Algorithm 1), using this
    // instruction as the co-execution partner candidate.
    verifiedUnitThisCycle_ = -1;
    unsigned stall = replayCheck(rec.instr.unit(), now);

    // Opportunistic drain (§4.3): any execution unit whose issue slot
    // is unused this cycle — by the new instruction and by the
    // co-executed verification — re-executes one queued instruction
    // of its own type.
    if (cfg_.interWarp) {
        for (unsigned t = 0; t < isa::kNumUnitTypes; ++t) {
            const auto ut = static_cast<isa::UnitType>(t);
            if (ut == rec.instr.unit() ||
                static_cast<int>(t) == verifiedUnitThisCycle_) {
                continue;
            }
            if (const auto *e = queue_.popOldestOfType(ut, now)) {
                interWarpVerify(e->rec, now);
                ++vars_.stats.unitDrainVerifications;
            }
        }
    }

    const bool verifiable = rec.verifiable();
    const unsigned active = rec.active.count();
    const bool full_mask = active == gpu_.warpSize;

    if (verifiable) {
        vars_.stats.verifiableThreadInstrs += active;
        // Sampling extension: outside the duty cycle the instruction
        // issues unprotected (it stays in the coverage denominator).
        if (!cfg_.activeAt(now)) {
            vars_.stats.sampledOutThreadInstrs += active;
            if (listener_)
                listener_->onUnprotected(rec);
            return stall;
        }
        const bool temporal =
            cfg_.interWarp && (full_mask || cfg_.temporalAll);
        if (full_mask)
            ++vars_.stats.interWarpInstrs;
        else
            ++vars_.stats.intraWarpInstrs;
        if (temporal) {
            if (&rec == &scratch()) {
                // The SM executed into our scratch buffer: adopt it
                // as the pending record by swapping buffer roles.
                scratchIsA_ = !scratchIsA_;
            } else {
                pendingRec() = rec;
            }
            vars_.hasPending = true;
        } else if (!full_mask && cfg_.intraWarp) {
            intraWarpVerify(rec, now);
        } else if (listener_) {
            // Scheme gap (e.g. inter-warp disabled for a full mask):
            // the record retires without ever being compared.
            listener_->onUnprotected(rec);
        }
    }
    return stall;
}

unsigned
DmrEngine::squashWarp(unsigned warp_id, std::uint64_t min_trace_id,
                      Cycle now)
{
    unsigned dropped = 0;
    if (vars_.hasPending) {
        const func::ExecRecord &p = pendingRec();
        if (p.warpId == warp_id && p.traceId >= min_trace_id) {
            vars_.hasPending = false;
            ++dropped;
        }
    }
    dropped += queue_.squashWarp(warp_id, min_trace_id, now);
    return dropped;
}

bool
DmrEngine::preRetireVerify(unsigned warp_id, Cycle now)
{
    if (!cfg_.enabled)
        return false;
    if (vars_.hasPending && pendingRec().warpId == warp_id) {
        vars_.hasPending = false;
        interWarpVerify(pendingRec(), now);
        return true;
    }
    if (const auto *e = queue_.popOldestOfWarp(warp_id, now)) {
        interWarpVerify(e->rec, now);
        return true;
    }
    return false;
}

unsigned
DmrEngine::replayCheck(isa::UnitType next_type, Cycle now)
{
    if (!vars_.hasPending)
        return 0;

    // Verified/queued in place: the pending buffer is not reused
    // until the adopting onIssue of a later instruction.
    vars_.hasPending = false;
    const func::ExecRecord &pending = pendingRec();

    if (pending.instr.unit() != next_type) {
        // Different unit types: the pending instruction's units are
        // idle this cycle; co-execute its DMR copy for free.
        verifiedUnitThisCycle_ =
            static_cast<int>(pending.instr.unit());
        interWarpVerify(pending, now);
        ++vars_.stats.coexecVerifications;
        return 0;
    }

    // Same type. Look for a queued instruction of a different type
    // whose unit is idle this cycle.
    if (const auto *e = queue_.popDifferentType(next_type, vars_.rng,
                                                cfg_.dequeuePolicy,
                                                now)) {
        verifiedUnitThisCycle_ = static_cast<int>(e->rec.instr.unit());
        // Verify the popped entry before the push below reuses its
        // freed slot.
        interWarpVerify(e->rec, now);
        ++vars_.stats.dequeueVerifications;
        queue_.push(pending, now);
        ++vars_.stats.enqueues;
        return 0;
    }

    if (queue_.full()) {
        // Eager re-execution: one stall cycle, then the operands
        // still in the pipeline are replayed on the same units.
        emit(trace::EventKind::ReplayOverflow, pending, now,
             queue_.capacity());
        interWarpVerify(pending, now + 1);
        ++vars_.stats.eagerStalls;
        return 1;
    }

    queue_.push(pending, now);
    ++vars_.stats.enqueues;
    return 0;
}

void
DmrEngine::onIdleCycle(Cycle now)
{
    if (!cfg_.enabled || !cfg_.interWarp)
        return;
    if (vars_.hasPending) {
        vars_.hasPending = false;
        const func::ExecRecord &pending = pendingRec();
        emit(trace::EventKind::IdleDrain, pending, now, 0);
        interWarpVerify(pending, now);
        ++vars_.stats.idleDrainVerifications;
        return;
    }
    if (const auto *e = queue_.popOldest(now)) {
        emit(trace::EventKind::IdleDrain, e->rec, now, 1);
        interWarpVerify(e->rec, now);
        ++vars_.stats.idleDrainVerifications;
    }
}

std::uint64_t
DmrEngine::drainAll(Cycle now)
{
    if (!cfg_.enabled || !cfg_.interWarp)
        return 0;
    std::uint64_t cycles = 0;
    while (vars_.hasPending || !queue_.empty()) {
        ++cycles;
        onIdleCycle(now + cycles);
    }
    vars_.stats.finalDrainCycles += cycles;
    return cycles;
}

void
DmrEngine::intraWarpVerify(const func::ExecRecord &rec, Cycle now)
{
    const unsigned w = gpu_.lanesPerCluster;
    const unsigned n_clusters = gpu_.clustersPerWarp();
    const auto unit = static_cast<unsigned>(rec.instr.unit());
    const LaneMask lane_active = mapping_.toLaneSpace(rec.active);
    const bool dormant = !exec_.hookLiveAt(now);

    unsigned covered = 0;
    bool mismatch = false;
    if (dormant && rec.clean && !clusterCounts_.empty()) {
        // Counted verification: no live hook produced the results or
        // re-executes them now, so every checker agrees. Only the
        // pairing's counts matter, and they depend on the cluster
        // occupancy alone.
        unsigned checkers = 0;
        for (unsigned c = 0; c < n_clusters; ++c) {
            const ClusterCounts &n =
                clusterCounts_[lane_active.clusterBits(c, w)];
            checkers += n.checkers;
            covered += n.covered;
        }
        vars_.stats.comparisons += checkers;
        vars_.stats.redundantThreadExecs[unit] += checkers;
    } else {
        // Dormant-hook fast path: re-execute every slot at once with
        // the vectorized plane compute; the RFU pairing below then
        // compares plane entries instead of re-running computeLane +
        // the virtual hook per monitored lane. Identical statistics;
        // a mismatch (a result corrupted while the hook was live)
        // falls back to the full per-slot comparator, whose hook call
        // is the identity.
        if (dormant) {
            func::Executor::computePlane(rec.instr, rec.operands,
                                         rec.laneInfo, gpu_.warpSize,
                                         verifyPlane_.data());
        }
        LaneMask covered_slots;
        for (unsigned c = 0; c < n_clusters; ++c) {
            const std::uint64_t bits = lane_active.clusterBits(c, w);
            if (bits == 0)
                continue;
            std::array<unsigned, Rfu::kMaxWidth> verifies;
            Rfu::pair(bits, w, verifies);
            for (unsigned m = 0; m < w; ++m) {
                if (verifies[m] == Rfu::kNone)
                    continue;
                const unsigned monitored_lane = c * w + verifies[m];
                const unsigned checker_lane = c * w + m;
                const unsigned slot = mapping_.slotOf(monitored_lane);
                if (dormant &&
                    verifyPlane_[slot] == rec.results[slot]) [[likely]] {
                    ++vars_.stats.comparisons;
                } else {
                    mismatch |=
                        verifySlot(rec, slot, checker_lane, true, now);
                }
                covered_slots.set(slot);
                ++vars_.stats.redundantThreadExecs[unit];
            }
        }
        covered = covered_slots.count();
    }
    if (covered > 0)
        emit(trace::EventKind::RfuForward, rec, now, covered);
    emit(trace::EventKind::IntraVerify, rec, now, covered);
    vars_.stats.verifiedThreadInstrs += covered;
    vars_.stats.intraVerifiedThreads += covered;
    if (listener_)
        listener_->onVerified(rec, mismatch, now);
}

void
DmrEngine::interWarpVerify(const func::ExecRecord &rec, Cycle now)
{
    const unsigned w = gpu_.lanesPerCluster;
    const unsigned ws = gpu_.warpSize;
    const auto unit = static_cast<unsigned>(rec.instr.unit());
    unsigned verified = 0;
    bool mismatch = false;

    // A clean record verified while the hook is not live is counted:
    // its results are the pure recompute, so the comparator agrees on
    // every slot. The query stays even for clean records — the ladder
    // capture's HorizonHook takes its horizons from the cycles it
    // names. Otherwise, the dormant-hook fast path re-executes all
    // slots with the vectorized plane compute and runs the comparator
    // as one masked bulk compare. Both are semantically identical to
    // the per-slot loop below — same comparison/redundant-exec
    // counts, same events — they only skip work known to agree.
    const bool dormant = !exec_.hookLiveAt(now);
    bool fast_clean = dormant && rec.clean;
    if (dormant && !fast_clean) {
        func::Executor::computePlane(rec.instr, rec.operands,
                                     rec.laneInfo, ws,
                                     verifyPlane_.data());
        std::uint64_t eq = 0;
        for (unsigned slot = 0; slot < ws; ++slot) {
            eq |= std::uint64_t{verifyPlane_[slot] ==
                                rec.results[slot]}
                  << slot;
        }
        fast_clean = (rec.active.raw() & ~eq) == 0;
    }

    if (fast_clean) {
        verified = rec.active.count();
        vars_.stats.comparisons += verified;
        vars_.stats.redundantThreadExecs[unit] += verified;
    } else {
        // A live hook, or a record corrupted while the hook was live:
        // per-slot dispatch in slot order, exactly as campaigns
        // require.
        for (unsigned slot = 0; slot < ws; ++slot) {
            if (!rec.active.test(slot))
                continue;
            const unsigned primary_lane = mapping_.laneOf(slot);
            const unsigned checker_lane =
                cfg_.laneShuffle ? shuffledLane(primary_lane, w)
                                 : primary_lane;
            mismatch |= verifySlot(rec, slot, checker_lane, false, now);
            ++verified;
            ++vars_.stats.redundantThreadExecs[unit];
        }
    }
    emit(trace::EventKind::InterVerify, rec, now, verified);
    vars_.stats.verifiedThreadInstrs += verified;
    vars_.stats.interVerifiedThreads += verified;
    if (listener_)
        listener_->onVerified(rec, mismatch, now);
}

bool
DmrEngine::verifySlot(const func::ExecRecord &rec, unsigned slot,
                      unsigned checker_lane, bool intra, Cycle now)
{
    const std::array<RegValue, 3> ops = {rec.operands[0][slot],
                                         rec.operands[1][slot],
                                         rec.operands[2][slot]};
    const RegValue pure =
        func::Executor::computeLane(rec.instr, ops, rec.laneInfo[slot]);

    func::FaultCtx ctx;
    ctx.sm = exec_.smId();
    ctx.lane = checker_lane;
    ctx.unit = rec.instr.unit();
    ctx.cycle = now;
    ctx.isAddress = rec.instr.isMem();
    const RegValue got = exec_.hook().apply(pure, ctx);

    ++vars_.stats.comparisons;
    const bool mismatch = got != rec.results[slot];
    if (mismatch) {
        ++vars_.stats.errorsDetected;
        emit(trace::EventKind::ErrorDetected, rec, now, slot);

        ErrorVerdict verdict = ErrorVerdict::None;
        if (cfg_.arbitrateErrors) {
            // Third execution on yet another lane; majority vote
            // classifies which side is suspect (extension — the
            // paper defers handling to the scheduler).
            const unsigned third_lane =
                shuffledLane(checker_lane, gpu_.lanesPerCluster);
            func::FaultCtx tctx = ctx;
            tctx.lane = third_lane;
            const RegValue third = exec_.hook().apply(pure, tctx);
            ++vars_.stats.arbitrations;
            if (third == got) {
                verdict = ErrorVerdict::PrimaryBad;
                ++vars_.stats.arbPrimaryBad;
            } else if (third == rec.results[slot]) {
                verdict = ErrorVerdict::CheckerBad;
                ++vars_.stats.arbCheckerBad;
            } else {
                verdict = ErrorVerdict::Inconclusive;
                ++vars_.stats.arbInconclusive;
            }
        }

        if (vars_.stats.errorLog.size() < DmrStats::kMaxErrorLog) {
            ErrorEvent ev;
            ev.cycle = now;
            ev.sm = exec_.smId();
            ev.warpId = rec.warpId;
            ev.pc = rec.pc;
            ev.slot = slot;
            ev.primaryLane = mapping_.laneOf(slot);
            ev.checkerLane = checker_lane;
            ev.primary = rec.results[slot];
            ev.checker = got;
            ev.intraWarp = intra;
            ev.verdict = verdict;
            vars_.stats.errorLog.push_back(ev);
        }
    }
    return mismatch;
}

} // namespace dmr
} // namespace warped
