/**
 * @file
 * Launch-level snapshot/resume: a launch resumed from any snapshot
 * it captured must end exactly like the uninterrupted launch — final
 * global memory, cycles, hang flag and every LaunchResult counter
 * (sm.*, dmr.*, recovery.*) — under every protection scheme, with
 * recovery on, on banked DRAM with SECDED, and from snapshots taken
 * while a block waits at a barrier or the ReplayQ is full. Restored
 * records keep their clean stamp, and a captured SM state's bytes()
 * counts the RAW-distance samples it holds. A machine forked from a
 * resident golden machine ends like a launch resumed at the fork's
 * cycle. Also pins the
 * gpu::Ladder's caps, rung-choice rules and rung horizons, and checks
 * that its activity log names every (SM, cycle) where a live fault
 * hook is applied.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "dmr/dmr_engine.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu.hh"
#include "gpu/snapshot.hh"
#include "kernel_fuzzer.hh"
#include "mem/memory.hh"
#include "pinned_configs.hh"
#include "protection/scheme_registry.hh"
#include "sm/plane_store.hh"
#include "workloads/workload.hh"

using namespace warped;

namespace {

using Factory = std::function<std::unique_ptr<workloads::Workload>()>;

/** A sink that keeps every snapshot at a fixed spacing, uncapped. */
class EveryK final : public gpu::SnapshotSink
{
  public:
    explicit EveryK(Cycle k) : k_(k) {}
    Cycle
    nextWanted(Cycle cycle) const override
    {
        return (cycle + k_ - 1) / k_ * k_;
    }
    void take(gpu::Snapshot &&s) override { snaps.push_back(std::move(s)); }
    std::vector<gpu::Snapshot> snaps;

  private:
    Cycle k_;
};

struct Machine
{
    arch::GpuConfig gpu = arch::GpuConfig::testDefault();
    dmr::DmrConfig dmr = dmr::DmrConfig::paperDefault();
    recovery::RecoveryConfig recovery;
    protection::SchemeConfig scheme;
};

/** What a launch leaves behind: its result and the device image. */
struct Outcome
{
    gpu::LaunchResult result{32};
    std::vector<std::uint8_t> dram;
};

Outcome
runLaunch(const Factory &factory, const Machine &m,
          const gpu::Snapshot *resume, gpu::SnapshotSink *sink,
          func::FaultHook *hook = nullptr)
{
    auto w = factory();
    gpu::Gpu g(m.gpu, m.dmr, /*seed=*/1, hook, m.recovery, m.scheme);
    w->setup(g);
    Outcome o;
    o.result = g.launch(w->program(), w->gridBlocks(), w->blockThreads(),
                        0, {}, resume, sink);
    o.dram.resize(g.allocator().used());
    g.mem().copyOut(0, o.dram.data(), o.dram.size());
    return o;
}

void
expectSame(const Outcome &want, const Outcome &got)
{
    EXPECT_EQ(got.result.cycles, want.result.cycles);
    EXPECT_EQ(got.result.hung, want.result.hung);
    EXPECT_EQ(got.result.metrics.toJson(), want.result.metrics.toJson());
    EXPECT_EQ(got.result.rawDistances, want.result.rawDistances);
    ASSERT_EQ(got.result.dmr.errorLog.size(),
              want.result.dmr.errorLog.size());
    EXPECT_TRUE(got.dram == want.dram) << "final global memory differs";
}

/** Capture every @p k cycles, then resume from each snapshot. */
std::vector<gpu::Snapshot>
checkEverySnapshot(const Factory &factory, const Machine &m, Cycle k)
{
    EveryK sink(k);
    const Outcome full = runLaunch(factory, m, nullptr, &sink);
    EXPECT_FALSE(full.result.hung);
    EXPECT_GT(sink.snaps.size(), 3u);
    // Capturing does not perturb the launch.
    expectSame(runLaunch(factory, m, nullptr, nullptr), full);
    for (const auto &snap : sink.snaps) {
        SCOPED_TRACE("resumed at cycle " +
                     std::to_string(snap.loop.cycle));
        expectSame(full, runLaunch(factory, m, &snap, nullptr));
    }
    return std::move(sink.snaps);
}

const Factory kMatrixMul = [] { return workloads::makeMatrixMul(32); };
const Factory kSha = [] { return workloads::makeSha(2); };
const Factory kScan = [] { return workloads::makeScan(2); };

struct SchemeCase
{
    const char *name;
    protection::SchemeId id;
    Factory factory;
};

void
PrintTo(const SchemeCase &c, std::ostream *os)
{
    *os << c.name;
}

class ResumeEveryScheme : public ::testing::TestWithParam<SchemeCase>
{
};

TEST_P(ResumeEveryScheme, MatchesUninterruptedLaunch)
{
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 4;
    m.scheme.id = GetParam().id;
    if (m.scheme.id == protection::SchemeId::PartialThread)
        m.scheme.protectFraction = 0.5;
    checkEverySnapshot(GetParam().factory, m, 211);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ResumeEveryScheme,
    ::testing::Values(
        SchemeCase{"warped_dmr", protection::SchemeId::WarpedDmr,
                   kMatrixMul},
        SchemeCase{"partial_thread", protection::SchemeId::PartialThread,
                   kSha},
        SchemeCase{"replay_compare", protection::SchemeId::ReplayCompare,
                   kScan},
        SchemeCase{"original", protection::SchemeId::Original, kSha},
        SchemeCase{"rnaive", protection::SchemeId::RNaive, kMatrixMul},
        SchemeCase{"rthread", protection::SchemeId::RThread, kScan}),
    [](const ::testing::TestParamInfo<SchemeCase> &info) {
        return std::string(info.param.name);
    });

TEST(Snapshot, ResumeWithRecoveryOn)
{
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 4;
    m.recovery = recovery::RecoveryConfig::paperDefault();
    for (const Factory &f : {kSha, kMatrixMul}) {
        const auto snaps = checkEverySnapshot(f, m, 173);
        // Recovery state is live in the snapshots (deltas in flight).
        bool any_delta = false;
        for (const auto &s : snaps)
            for (const auto &sm : s.sms)
                any_delta |= sm->recovery && sm->recovery->ring().totalSize();
        EXPECT_TRUE(any_delta);
    }
}

TEST(Snapshot, ResumeOnBankedDramWithSecded)
{
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 4;
    m.gpu.memModel = arch::MemModel::Banked;
    m.gpu.eccKind = arch::EccKind::Secded;
    const auto snaps = checkEverySnapshot(kMatrixMul, m, 199);
    ASSERT_TRUE(snaps.back().memSys.has_value());
    EXPECT_GT(snaps.back().memSys->transactions, 0u);
}

TEST(Snapshot, ResumeWhileABlockWaitsAtABarrier)
{
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 2;
    // A dense capture so some snapshot lands mid-barrier.
    const auto snaps = checkEverySnapshot(kScan, m, 7);
    unsigned at_barrier = 0;
    for (const auto &s : snaps)
        for (const auto &sm : s.sms)
            for (const auto &b : sm->blocks)
                at_barrier += b.barrierWaiters > 0;
    EXPECT_GT(at_barrier, 0u);
}

TEST(Snapshot, ResumeWithAFullReplayQueue)
{
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 2;
    m.dmr.replayQSize = 2;
    const auto snaps = checkEverySnapshot(kMatrixMul, m, 5);
    using DmrState =
        protection::SchemeStateOf<dmr::DmrEngine, dmr::DmrEngine::State>;
    unsigned full = 0;
    for (const auto &s : snaps)
        for (const auto &sm : s.sms) {
            const auto *st = dynamic_cast<const DmrState *>(sm->scheme.get());
            ASSERT_NE(st, nullptr);
            full += st->state.queue.records.size() == m.dmr.replayQSize;
        }
    EXPECT_GT(full, 0u);
}

TEST(Snapshot, StateBytesCountTheRawDistanceSamples)
{
    // SM 0 tracks one thread's write-to-read distances (Fig 8b), and
    // every captured SM 0 state copies the samples so far. The ladder
    // budgets its rungs by bytes(), so bytes() must count them.
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 4;
    EveryK sink(1024);
    runLaunch([] { return workloads::makeSha(4); }, m, nullptr, &sink);
    ASSERT_FALSE(sink.snaps.empty());
    sm::Sm::State &late = *sink.snaps.back().sms[0];
    auto &raw = late.stats.rawDistance;
    const std::size_t samples = raw.samples().size();
    ASSERT_GT(samples, 0u);
    EXPECT_GE(late.bytes(), samples * sizeof(std::uint64_t));
    // Each further sample the state holds grows bytes() by 8 bytes.
    const std::size_t before = late.bytes();
    constexpr unsigned kMore = 100;
    for (unsigned i = 0; i < kMore; ++i) {
        raw.onWrite(0, Cycle{1000000} + 2 * i);
        raw.onRead(0, Cycle{1000001} + 2 * i);
    }
    ASSERT_EQ(raw.samples().size(), samples + kMore);
    EXPECT_GE(late.bytes(), before + kMore * sizeof(std::uint64_t));
}

TEST(Ladder, CapsRungsAndBytesByDoublingTheSpacing)
{
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 4;
    gpu::Ladder ladder;
    const Outcome full = runLaunch([] { return workloads::makeSha(16); }, m,
                                   nullptr, &ladder, &ladder.hook());
    const auto &rungs = ladder.rungs();
    ASSERT_FALSE(rungs.empty());
    EXPECT_LE(rungs.size(), gpu::Ladder::kMaxRungs);
    EXPECT_LE(ladder.bytes(), gpu::Ladder::kMaxBytes);
    // Long enough that the initial spacing overflows the rung cap.
    EXPECT_GT(ladder.spacing(), gpu::Ladder::kInitialSpacing);
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const Cycle c = rungs[i].snap.loop.cycle;
        EXPECT_EQ(c, i * ladder.spacing());
        EXPECT_LE(ladder.horizon(c), c + 2);
        bytes += rungs[i].bytes;
    }
    EXPECT_EQ(bytes + rungs.front().snap.planes->bytes(), ladder.bytes());
    EXPECT_EQ(ladder.horizon(0), 0u);
    // The horizon hook is a fault-free hook: the capture ran the
    // golden launch unchanged.
    expectSame(runLaunch([] { return workloads::makeSha(16); }, m,
                         nullptr, nullptr),
               full);
}

TEST(Ladder, ExecFaultsForkAtTheLatestCycleBelowTheirHorizon)
{
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 2;
    m.dmr.replayQSize = 1; // eager re-executions verify at now + 1
    gpu::Ladder ladder;
    const Outcome full =
        runLaunch(kMatrixMul, m, nullptr, &ladder, &ladder.hook());
    const auto &rungs = ladder.rungs();
    ASSERT_GT(rungs.size(), 2u);
    EXPECT_EQ(&ladder.rungAt(0), &rungs[0].snap);
    EXPECT_EQ(ladder.execFork(0), 0u);
    std::size_t lookahead = 0, rung = 0;
    for (Cycle c = 0; c <= full.result.cycles; ++c) {
        // The table is nondecreasing.
        if (c > 0) {
            EXPECT_GE(ladder.horizon(c), ladder.horizon(c - 1));
        }
        // The fork of a fault opening at c: at or before c, below the
        // horizon, and the latest such cycle.
        const Cycle f = ladder.execFork(c);
        EXPECT_LE(f, c);
        EXPECT_LE(ladder.horizon(f), c);
        if (f < c) {
            EXPECT_GT(ladder.horizon(f + 1), c);
        }
        lookahead += ladder.horizon(c) > c;
        // The rung a golden machine restarts from to reach c.
        while (rung + 1 < rungs.size() &&
               rungs[rung + 1].snap.loop.cycle <= c)
            ++rung;
        EXPECT_EQ(&ladder.rungAt(c), &rungs[rung].snap);
    }
    EXPECT_GT(lookahead, 0u) << "no prefix saw an eager look-ahead";
    // Past the launch's end the last cycle's horizon holds.
    EXPECT_EQ(ladder.horizon(full.result.cycles + 1000),
              ladder.horizon(full.result.cycles));
}

TEST(Ladder, HorizonsMatchTheRecomputingEngine)
{
    // The (cycle, horizon) of every rung, as captured by an engine
    // that re-executed every verification. Counted verification keeps
    // the verify-time hook query, so the horizons — eager look-aheads
    // at now + 1 included — must not move.
    setVerbose(false);
    struct Case
    {
        const char *name;
        Factory factory;
        unsigned sms;
        unsigned qsize;
        std::vector<std::pair<Cycle, Cycle>> rungs;
    };
    const Case cases[] = {
        {"matrixmul_q1", kMatrixMul, 2, 1,
         {{0, 0}, {512, 512}, {1024, 1022}, {1536, 1537}, {2048, 2049},
          {2560, 2561}, {3072, 3073}, {3584, 3585}, {4096, 4097},
          {4608, 4609}, {5120, 5121}}},
        {"sha", kSha, 4, 10,
         {{0, 0}, {512, 510}, {1024, 1024}, {1536, 1536}, {2048, 2048},
          {2560, 2560}, {3072, 3069}, {3584, 3582}, {4096, 4096},
          {4608, 4608}, {5120, 5120}}},
        {"bfs_q1", [] { return workloads::makeBfs(2); }, 4, 1,
         {{0, 0},       {512, 510},     {1024, 1011},   {1536, 1528},
          {2048, 2048}, {2560, 2561},   {3072, 3059},   {3584, 3584},
          {4096, 4096}, {4608, 4608},   {5120, 5120},   {5632, 5627},
          {6144, 6145}, {6656, 6656},   {7168, 7168},   {7680, 7677},
          {8192, 8190}, {8704, 8700},   {9216, 9214},   {9728, 9728},
          {10240, 10231}, {10752, 10748}, {11264, 11264},
          {11776, 11776}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Machine m;
        m.gpu.numSms = c.sms;
        m.dmr.replayQSize = c.qsize;
        gpu::Ladder ladder;
        runLaunch(c.factory, m, nullptr, &ladder, &ladder.hook());
        std::vector<std::pair<Cycle, Cycle>> got;
        for (const auto &r : ladder.rungs())
            got.emplace_back(r.snap.loop.cycle,
                             ladder.horizon(r.snap.loop.cycle));
        EXPECT_EQ(got, c.rungs);
    }
}

TEST(ActivityLog, QuietIsExactBelowTheCapAndARangeBeyondIt)
{
    gpu::ActivityLog log;
    EXPECT_TRUE(log.quiet(0, 0, ~Cycle{0}));
    log.note(1, 63);
    log.note(1, 64);
    log.note(1, 200);
    EXPECT_TRUE(log.quiet(0, 0, ~Cycle{0}));
    EXPECT_TRUE(log.quiet(2, 0, ~Cycle{0}));
    EXPECT_TRUE(log.quiet(1, 0, 62));
    EXPECT_FALSE(log.quiet(1, 0, 63));
    EXPECT_FALSE(log.quiet(1, 64, 64));
    EXPECT_TRUE(log.quiet(1, 65, 199));
    EXPECT_FALSE(log.quiet(1, 199, 201));
    EXPECT_TRUE(log.quiet(1, 201, ~Cycle{0}));
    EXPECT_TRUE(log.quiet(1, 64, 63)); // empty window

    // At and beyond the cap only the range of named cycles is kept.
    const Cycle far = Cycle{1} << 40;
    log.note(1, far + 5);
    log.note(1, far + 9);
    EXPECT_FALSE(log.quiet(1, 201, ~Cycle{0}));
    EXPECT_FALSE(log.quiet(1, far + 7, far + 7));
    EXPECT_TRUE(log.quiet(1, 201, far + 4));
    EXPECT_TRUE(log.quiet(1, far + 10, ~Cycle{0}));
    log.note(3, gpu::ActivityLog::kMaxCycles);
    EXPECT_FALSE(log.quiet(3, 0, gpu::ActivityLog::kMaxCycles));
    EXPECT_TRUE(log.quiet(3, 0, gpu::ActivityLog::kMaxCycles - 1));
}

/** The identity, live everywhere (FaultHook's default liveAt), so
 *  every produced value passes through apply(); it records the
 *  (SM, cycle) of each call. */
class RecordingLiveHook final : public func::FaultHook
{
  public:
    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        const std::pair<unsigned, Cycle> at{ctx.sm, ctx.cycle};
        if (seen.empty() || seen.back() != at)
            seen.push_back(at);
        return pure;
    }
    std::vector<std::pair<unsigned, Cycle>> seen;
};

/** One launch on a fresh machine, run under @p hook while capturing
 *  into @p sink (may be null). */
using HookedLaunch =
    std::function<void(func::FaultHook &hook, gpu::SnapshotSink *sink)>;

/**
 * Log completeness: run @p launch as a pass capturing @p ladder and
 * again under RecordingLiveHook. Every (SM, cycle) an apply() call of
 * the live run named must be non-quiet in the ladder's log — the live
 * run applies the hook wherever a fault could act, so a quiet pair
 * there would let the oracle settle a site that activates. Returns
 * the pairs the live run named.
 */
std::vector<std::pair<unsigned, Cycle>>
expectLogComplete(const HookedLaunch &launch, gpu::Ladder &ladder)
{
    launch(ladder.hook(), &ladder);
    RecordingLiveHook live;
    launch(live, nullptr);
    std::size_t missing = 0;
    for (const auto &[sm, c] : live.seen) {
        if (ladder.quiet(sm, c, c) && missing++ == 0)
            ADD_FAILURE() << "apply on sm " << sm << " at cycle " << c
                          << " is quiet in the ladder's log";
    }
    EXPECT_EQ(missing, 0u);
    EXPECT_FALSE(live.seen.empty());
    return live.seen;
}

TEST(ActivityLog, LadderLogCoversEveryLiveApplyOfThePinnedConfigs)
{
    setVerbose(false);
    for (const auto &cfg : test::pinnedConfigs()) {
        SCOPED_TRACE(cfg.name);
        auto gcfg = arch::GpuConfig::testDefault();
        gcfg.numSms = 4;
        gcfg.memModel = cfg.memModel;
        gcfg.eccKind = cfg.ecc;
        for (const auto &factory : cfg.factories) {
            gpu::Ladder ladder;
            expectLogComplete([&](func::FaultHook &hook,
                                  gpu::SnapshotSink *sink) {
                auto w = factory();
                gpu::Gpu g(gcfg, cfg.dmr, /*seed=*/1, &hook, cfg.recovery,
                           cfg.scheme);
                w->setup(g);
                g.launch(w->program(), w->gridBlocks(), w->blockThreads(),
                         0, {}, nullptr, sink);
                EXPECT_TRUE(w->verify(g));
            }, ladder);
        }
    }
}

TEST(ActivityLog, LadderLogCoversEveryLiveApplyOfFuzzedKernels)
{
    setVerbose(false);
    auto gcfg = arch::GpuConfig::testDefault();
    gcfg.numSms = 2;
    for (const std::uint64_t seed : {3u, 17u, 29u, 41u}) {
        for (const bool eager : {false, true}) {
            SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                         (eager ? ", one-entry ReplayQ" : ""));
            auto d = dmr::DmrConfig::paperDefault();
            if (eager)
                d.replayQSize = 1; // eager verifies look ahead to now + 1
            gpu::Ladder ladder;
            expectLogComplete([&](func::FaultHook &hook,
                                  gpu::SnapshotSink *sink) {
                gpu::Gpu g(gcfg, d, /*seed=*/1, &hook);
                const Addr out = g.allocator().alloc(64 * 4);
                const isa::Program prog =
                    testutil::KernelFuzzer(seed).generate(out);
                g.launch(prog, 2, 64, 0, {}, nullptr, sink);
            }, ladder);
        }
    }
}

TEST(ActivityLog, RNaiveSecondRunCallsLandBeyondTheBitmap)
{
    // R-Naive applies its modelled second run at now + 2^40, past the
    // bitmap: only the beyond-the-cap range can vouch for those.
    setVerbose(false);
    Machine m;
    m.gpu.numSms = 2;
    m.dmr = dmr::DmrConfig::off();
    m.scheme.id = protection::SchemeId::RNaive;
    gpu::Ladder ladder;
    const auto seen = expectLogComplete(
        [&](func::FaultHook &hook, gpu::SnapshotSink *sink) {
            runLaunch(kMatrixMul, m, nullptr, sink, &hook);
        },
        ladder);
    std::size_t beyond = 0;
    for (const auto &[sm, c] : seen)
        beyond += c >= gpu::ActivityLog::kMaxCycles;
    EXPECT_GT(beyond, 0u);
    // The range is tight: nothing between the bitmap and the second
    // run's first cycle counts as named.
    for (unsigned sm = 0; sm < m.gpu.numSms; ++sm)
        EXPECT_TRUE(ladder.quiet(sm, gpu::ActivityLog::kMaxCycles,
                                 (Cycle{1} << 40) - 1));
}

TEST(Snapshot, RestoredRecordsKeepTheirCleanBit)
{
    // A ReplayQ entry and the pending RF-stage record, clean and not,
    // through DmrEngine::saveStateValue / restoreState and back.
    setVerbose(false);
    const auto cfg = arch::GpuConfig::testDefault();
    mem::Memory global(4096);
    func::Executor exec(cfg, 0, global, func::NullFaultHook::instance());
    const auto record = [](bool clean) {
        func::ExecRecord r;
        r.instr.op = isa::Opcode::IADD;
        r.instr.dst = isa::Reg{1};
        r.active = LaneMask::full(32);
        r.clean = clean;
        return r;
    };
    const auto clean_of = [](const func::PackedRecords &p) {
        func::ExecRecord r;
        r.clean = !r.clean;
        p.unpack(0, r);
        return r.clean;
    };
    for (const bool first : {true, false}) {
        dmr::DmrEngine e(cfg, dmr::DmrConfig::paperDefault(), exec, 1);
        // Same unit, empty queue: the first record is enqueued and the
        // second becomes the pending one.
        e.onIssue(record(first), 0);
        e.onIssue(record(!first), 1);
        ASSERT_EQ(e.replayQueueSize(), 1u);
        ASSERT_TRUE(e.hasPending());

        dmr::DmrEngine restored(cfg, dmr::DmrConfig::paperDefault(), exec,
                                7);
        restored.restoreState(e.saveStateValue());
        const auto s = restored.saveStateValue();
        ASSERT_EQ(s.queue.records.size(), 1u);
        ASSERT_EQ(s.pending.size(), 1u);
        EXPECT_EQ(clean_of(s.queue.records), first);
        EXPECT_EQ(clean_of(s.pending), !first);
    }
    // A fault-free launch stamps every record clean, so every record
    // a rung holds is clean.
    Machine m;
    m.gpu.numSms = 2;
    m.dmr.replayQSize = 2;
    EveryK sink(5);
    runLaunch(kMatrixMul, m, nullptr, &sink);
    using DmrState =
        protection::SchemeStateOf<dmr::DmrEngine, dmr::DmrEngine::State>;
    unsigned held = 0;
    for (const auto &snap : sink.snaps)
        for (const auto &sm : snap.sms) {
            const auto *st =
                dynamic_cast<const DmrState *>(sm->scheme.get());
            ASSERT_NE(st, nullptr);
            for (const auto *p : {&st->state.queue.records,
                                  &st->state.pending})
                for (std::size_t i = 0; i < p->size(); ++i) {
                    func::ExecRecord r;
                    p->unpack(i, r);
                    EXPECT_TRUE(r.clean);
                    ++held;
                }
        }
    EXPECT_GT(held, 0u);
}

TEST(Snapshot, ResumingADifferentLaunchPanics)
{
    setVerbose(false);
    Machine m;
    EveryK sink(1000);
    runLaunch(kScan, m, nullptr, &sink);
    ASSERT_FALSE(sink.snaps.empty());
    EXPECT_THROW(runLaunch(kMatrixMul, m, &sink.snaps.back(), nullptr),
                 std::exception);
}

/**
 * Resident machines. A Gpu restored in place over a machine that has
 * already run — to the end, part way, under a fault, or into a panic
 * — must end exactly like a fresh launch resumed from the same
 * snapshot; a golden machine advanced to a cycle and captured there
 * must hold what the uninterrupted launch held at that cycle; and a
 * site machine forked from it there (Gpu::forkFrom), whatever either
 * machine ran since their previous fork, must end like that resume.
 */
struct ResidentCase
{
    const char *name;
    Factory factory;
    Machine machine;
};

std::vector<ResidentCase>
residentCases()
{
    std::vector<ResidentCase> cases;
    const auto add = [&](const char *name, Factory f,
                         const std::function<void(Machine &)> &tweak) {
        Machine m;
        m.gpu.numSms = 4;
        tweak(m);
        cases.push_back({name, std::move(f), m});
    };
    add("matrixmul", kMatrixMul, [](Machine &) {});
    add("sha_recovery", kSha, [](Machine &m) {
        m.recovery = recovery::RecoveryConfig::paperDefault();
    });
    add("matrixmul_banked_secded", kMatrixMul, [](Machine &m) {
        m.gpu.memModel = arch::MemModel::Banked;
        m.gpu.eccKind = arch::EccKind::Secded;
    });
    add("scan_gto2", kScan, [](Machine &m) {
        m.gpu.schedPolicy = arch::SchedPolicy::GreedyThenOldest;
        m.gpu.numSchedulers = 2;
    });
    add("sha_rthread", kSha, [](Machine &m) {
        m.scheme.id = protection::SchemeId::RThread;
    });
    add("scan_partial_thread", kScan, [](Machine &m) {
        m.scheme.id = protection::SchemeId::PartialThread;
        m.scheme.protectFraction = 0.5;
    });
    add("scan_replay_compare", kScan, [](Machine &m) {
        m.scheme.id = protection::SchemeId::ReplayCompare;
    });
    add("matrixmul_dmtr", kMatrixMul, [](Machine &m) {
        m.scheme.id = protection::SchemeId::Dmtr;
    });
    add("sha_rnaive", kSha, [](Machine &m) {
        m.scheme.id = protection::SchemeId::RNaive;
    });
    add("scan_original", kScan, [](Machine &m) {
        m.scheme.id = protection::SchemeId::Original;
    });
    return cases;
}

/** Restore @p g in place at @p snap and run it to the end. */
Outcome
finishResident(gpu::Gpu &g, const workloads::Workload &w,
               const gpu::Snapshot &snap)
{
    g.restore(w.program(), w.gridBlocks(), w.blockThreads(), snap);
    Outcome o;
    o.result = g.finish();
    o.dram.resize(g.allocator().used());
    g.mem().copyOut(0, o.dram.data(), o.dram.size());
    return o;
}

/** A hook that panics, mid-tick, on the first value it sees at or
 *  after cycle @p at: the way an injected fault trips a simulator
 *  sanity check. */
class PanicAt final : public func::FaultHook
{
  public:
    explicit PanicAt(Cycle at) : at_(at) {}
    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        if (ctx.cycle >= at_)
            warped_panic("injected panic at cycle ", ctx.cycle);
        return pure;
    }

  private:
    Cycle at_;
};

TEST(ResidentMachine, RestoresOverAUsedMachineLikeAFreshResume)
{
    setVerbose(false);
    for (const auto &tc : residentCases()) {
        SCOPED_TRACE(tc.name);
        EveryK sink(311);
        const Outcome full =
            runLaunch(tc.factory, tc.machine, nullptr, &sink);
        ASSERT_GT(sink.snaps.size(), 3u);
        const auto &m = tc.machine;
        auto w = tc.factory();
        gpu::Gpu g(m.gpu, m.dmr, /*seed=*/1, nullptr, m.recovery,
                   m.scheme);
        w->setup(g);
        // Latest snapshot first, then in order: every restore lands
        // on a machine that ran past it, or not as far.
        std::vector<std::size_t> order;
        for (std::size_t i = sink.snaps.size(); i-- > 0;)
            order.push_back(i);
        for (std::size_t i = 0; i < sink.snaps.size(); ++i)
            order.push_back(i);
        unsigned k = 0;
        for (const std::size_t i : order) {
            const auto &snap = sink.snaps[i];
            // Every third restore follows a faulty run that a stuck
            // bit corrupted, and every fifth one a run that panicked
            // mid-tick, so it lands on state no golden run holds.
            if (++k % 3 == 0) {
                fault::FaultSpec spec;
                spec.kind = fault::FaultKind::StuckAtOne;
                spec.sm = k % m.gpu.numSms;
                spec.lane = k % 32;
                spec.bit = k % 32;
                fault::FaultInjector inj;
                inj.add(spec);
                g.setHook(&inj);
                g.restore(w->program(), w->gridBlocks(), w->blockThreads(),
                          sink.snaps[(i + 1) % sink.snaps.size()]);
                try {
                    g.finish(full.result.cycles * 4 + 1000);
                } catch (const std::exception &) {
                    // A fault may trip a sanity panic: state is torn.
                }
                g.setHook(nullptr);
            }
            if (k % 5 == 0) {
                PanicAt panic(snap.loop.cycle / 2 + 1);
                g.setHook(&panic);
                g.restore(w->program(), w->gridBlocks(), w->blockThreads(),
                          sink.snaps.front());
                EXPECT_THROW(g.finish(), std::exception);
                g.setHook(nullptr);
            }
            SCOPED_TRACE("restored at cycle " +
                         std::to_string(snap.loop.cycle));
            expectSame(full, finishResident(g, *w, snap));
        }
    }
}

TEST(ResidentMachine, AdvancedAndCapturedGoldenMatchesTheLaunch)
{
    setVerbose(false);
    for (const auto &tc : residentCases()) {
        SCOPED_TRACE(tc.name);
        EveryK sink(257);
        const Outcome full =
            runLaunch(tc.factory, tc.machine, nullptr, &sink);
        const auto &m = tc.machine;
        auto w = tc.factory();
        gpu::Gpu golden(m.gpu, m.dmr, /*seed=*/1, nullptr, m.recovery,
                        m.scheme);
        gpu::Gpu site(m.gpu, m.dmr, /*seed=*/1, nullptr, m.recovery,
                      m.scheme);
        w->setup(site);
        golden.restore(w->program(), w->gridBlocks(), w->blockThreads(),
                       sink.snaps.front());
        auto planes = std::make_shared<sm::PlaneStore>(m.gpu.warpSize);
        // Capture at uneven cycles, twice at some, and now and then
        // into a fresh plane store (the next capture is then a full
        // one).
        unsigned forks = 0;
        for (Cycle c = 3; c < full.result.cycles; c += 97 + c % 89) {
            golden.advanceTo(c);
            ASSERT_EQ(golden.cycle(), c);
            if (++forks % 4 == 0)
                planes = std::make_shared<sm::PlaneStore>(m.gpu.warpSize);
            for (unsigned twice = 0; twice < 1 + forks % 2; ++twice) {
                SCOPED_TRACE("forked at cycle " + std::to_string(c));
                expectSame(full,
                           finishResident(site, *w, golden.capture(planes)));
            }
        }
        EXPECT_GT(forks, 3u);
        // Past the end, the golden machine stops at the launch's end.
        golden.advanceTo(full.result.cycles + 100);
        EXPECT_EQ(golden.cycle(), full.result.cycles);
    }
}

/** An identity hook that notes the last cycle it is applied at. */
class LastApply final : public func::FaultHook
{
  public:
    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        last = std::max(last, ctx.cycle);
        return pure;
    }

    Cycle last = 0;
};

/** Fork @p site from @p golden, run it to the end and read back what
 *  it left: the result and the device image. */
Outcome
forkAndFinish(gpu::Gpu &site, gpu::Gpu &golden)
{
    site.forkFrom(golden);
    Outcome o;
    o.result = site.finish();
    o.dram.resize(site.allocator().used());
    site.mem().copyOut(0, o.dram.data(), o.dram.size());
    return o;
}

TEST(ResidentMachine, ForkFromGoldenMatchesAFreshResume)
{
    setVerbose(false);
    for (const auto &tc : residentCases()) {
        SCOPED_TRACE(tc.name);
        EveryK sink(193);
        const Outcome full =
            runLaunch(tc.factory, tc.machine, nullptr, &sink);
        ASSERT_GT(sink.snaps.size(), 3u);
        const auto &m = tc.machine;
        // A scheme whose launch ends in a drain that re-executes
        // nothing (Replay-Compare's replay, an emptied ReplayQ)
        // applies no hook after its last one here.
        LastApply last;
        runLaunch(tc.factory, m, nullptr, nullptr, &last);
        auto w = tc.factory();
        gpu::Gpu golden(m.gpu, m.dmr, /*seed=*/1, nullptr, m.recovery,
                        m.scheme);
        gpu::Gpu site(m.gpu, m.dmr, /*seed=*/1, nullptr, m.recovery,
                      m.scheme);
        w->setup(site);
        golden.restore(w->program(), w->gridBlocks(), w->blockThreads(),
                       sink.snaps.front());
        std::uint64_t planes = 0;
        unsigned k = 0;
        for (const auto &snap : sink.snaps) {
            const Cycle at = snap.loop.cycle;
            SCOPED_TRACE("forked at cycle " + std::to_string(at));
            // The golden machine sweeps on from the previous fork, in
            // which the site machine ran on to the end: both wrote
            // since. Every third fork instead follows a short site,
            // forked where the golden machine stood before it swept
            // on and run a few cycles the way a campaign site is, so
            // most of what changed since was written by the golden
            // machine alone. Every other fork is also preceded by a
            // site forked at the same cycle that left
            // the site machine somewhere no golden run goes, while
            // the golden machine stood still: a faulty run stopped part
            // way (registers, shared memory, the ReplayQ and the
            // recovery ring written under a stuck bit), a faulty run
            // to the end (global memory too), or a run that panicked
            // mid-tick. A stray store to an input word rides along.
            if (k % 3 == 2 && golden.cycle() < at) {
                planes += site.forkFrom(golden);
                const Cycle stop_at = golden.cycle() + 4;
                site.runToEnd(0, [stop_at](Cycle c,
                                           const gpu::LaunchLoop &) {
                    return c + 1 >= stop_at;
                });
            }
            golden.advanceTo(at);
            ASSERT_EQ(golden.cycle(), at);
            switch (k++ % 6) {
              case 1:
              case 3: {
                planes += site.forkFrom(golden);
                fault::FaultSpec spec;
                spec.kind = fault::FaultKind::StuckAtOne;
                spec.sm = k % m.gpu.numSms;
                spec.lane = k % 32;
                spec.bit = 3 + k % 29;
                fault::FaultInjector inj;
                inj.add(spec);
                site.setHook(&inj);
                const Cycle stop_at = k % 4 == 1 ? at + 150 : 0;
                const gpu::StopPredicate stop =
                    [stop_at](Cycle c, const gpu::LaunchLoop &) {
                        return stop_at != 0 && c + 1 >= stop_at;
                    };
                try {
                    site.runToEnd(full.result.cycles * 4 + 1000, stop);
                } catch (const std::exception &) {
                    // A fault may trip a sanity panic: state is torn.
                }
                site.setHook(nullptr);
                site.mem().writeWord(256, 0xdeadbeefu);
                break;
              }
              case 5: {
                planes += site.forkFrom(golden);
                PanicAt panic(at + 2);
                site.setHook(&panic);
                if (at + 2 <= last.last)
                    EXPECT_THROW(site.runToEnd(), std::exception);
                else
                    EXPECT_NO_THROW(site.runToEnd());
                site.setHook(nullptr);
                break;
              }
              default:
                break;
            }
            expectSame(runLaunch(tc.factory, m, &snap, nullptr),
                       forkAndFinish(site, golden));
        }
        EXPECT_GT(planes, 0u);
        // Forking from the golden machine left it on the golden run.
        Outcome rest;
        rest.result = golden.finish();
        rest.dram.resize(site.allocator().used());
        golden.mem().copyOut(0, rest.dram.data(), rest.dram.size());
        expectSame(full, rest);
    }
}

} // namespace
