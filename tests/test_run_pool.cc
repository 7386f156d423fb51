/**
 * @file
 * Unit tests for the experiment plane introduced with the
 * launch/aggregation refactor: sim::RunPool (determinism, exception
 * propagation), stats::LaunchAggregator (folding hand-built SmStats
 * without any Sm), and seed derivation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/run_pool.hh"
#include "stats/launch_aggregator.hh"
#include "workloads/workload.hh"

using namespace warped;

TEST(RunPool, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(sim::RunPool::defaultJobs(), 1u);
    sim::RunPool pool; // kHardwareConcurrency
    EXPECT_GE(pool.jobs(), 1u);
}

TEST(RunPool, AbsurdJobCountsClampToTheCeiling)
{
    // strtoul("-3") wraps to ~4 billion; the ctor must not try to
    // spawn that many threads.
    sim::RunPool pool(4294967293u);
    EXPECT_EQ(pool.jobs(), sim::RunPool::kMaxJobs);
}

TEST(RunPool, ParallelForFillsEverySlotInIndexOrder)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        sim::RunPool pool(jobs);
        std::vector<std::size_t> out(257, 0);
        pool.parallelFor(out.size(),
                         [&](std::size_t i) { out[i] = i * i; });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i);
    }
}

TEST(RunPool, BoundedQueueHandlesManyMoreTasksThanWorkers)
{
    sim::RunPool pool(2);
    std::atomic<std::uint64_t> sum{0};
    const std::size_t n = 1000; // far beyond the queue capacity
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(RunPool, WaitRethrowsTheFirstTaskError)
{
    sim::RunPool pool(4);
    pool.parallelFor(8, [](std::size_t) {});
    pool.wait(); // no error: returns

    for (std::size_t i = 0; i < 8; ++i)
        pool.submit([i] {
            if (i == 3)
                throw std::runtime_error("boom");
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The pool survives: it keeps accepting work afterwards.
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(RunPool, InlineModeDrainsPastAThrowingTask)
{
    // jobs == 1 must keep the threaded failure contract: a throwing
    // task fails only its own slot, every queued run after it still
    // executes, and the first exception surfaces from wait().
    // (Historically the throw escaped from submit()/parallelFor and
    // the rest of the batch was silently lost.)
    sim::RunPool pool(1);
    std::vector<int> out(8, 0);
    std::string what;
    try {
        pool.parallelFor(out.size(), [&](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("first");
            if (i == 5)
                throw std::runtime_error("second");
            out[i] = 1;
        });
        FAIL() << "parallelFor should have rethrown";
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    // The *first* error propagated, after the whole batch drained:
    // the non-throwing slots — including those after the throws —
    // all completed.
    EXPECT_EQ(what, "first");
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i == 2 || i == 5 ? 0 : 1) << "slot " << i;

    sim::RunPool pool2(1);
    bool later_ran = false;
    EXPECT_THROW(pool2.parallelFor(4,
                                   [&](std::size_t i) {
                                       if (i == 0)
                                           throw std::runtime_error(
                                               "boom");
                                       if (i == 3)
                                           later_ran = true;
                                   }),
                 std::runtime_error);
    EXPECT_TRUE(later_ran);
    const auto c = pool2.counters();
    EXPECT_EQ(c.submitted, 4u);
    EXPECT_EQ(c.completed, 4u);
    EXPECT_EQ(c.failed, 1u);
    // The error was consumed; the pool keeps working.
    pool2.parallelFor(2, [](std::size_t) {});

    // submit()-then-wait() follows the same contract.
    sim::RunPool pool3(1);
    int ran = 0;
    pool3.submit([] { throw std::runtime_error("boom"); });
    pool3.submit([&] { ++ran; });
    EXPECT_THROW(pool3.wait(), std::runtime_error);
    EXPECT_EQ(ran, 1);
    pool3.wait(); // error consumed: returns
}

TEST(RunPool, SingleJobRunsInline)
{
    sim::RunPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::thread::id seen;
    pool.submit([&] { seen = std::this_thread::get_id(); });
    pool.wait();
    EXPECT_EQ(seen, caller);
}

TEST(Rng, DeriveSeedIsDeterministicAndStreamSeparated)
{
    EXPECT_EQ(deriveSeed(42, 0), deriveSeed(42, 0));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(42, 1));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(43, 0));
    // Consecutive streams give uncorrelated first draws.
    Rng a(deriveSeed(7, 0)), b(deriveSeed(7, 1));
    EXPECT_NE(a.next(), b.next());
}

namespace {

constexpr unsigned kWarp = 4;
constexpr unsigned kRegs = 8;

sm::SmStats
makeStats()
{
    return sm::SmStats(kWarp, kRegs);
}

} // namespace

TEST(LaunchAggregator, FoldsTwoHandBuiltSmStats)
{
    auto st1 = makeStats();
    st1.issuedWarpInstrs = 10;
    st1.issuedThreadInstrs = 40;
    st1.busyCycles = 9;
    st1.cycles = 20;
    st1.blocksRetired = 2;
    st1.activeCountHist.add(4, 6);
    st1.activeCountHist.add(2, 4);
    st1.unitIssues[0] = 8;
    st1.unitThreadExecs[0] = 30;
    // One same-type run of length 3 for unit 0.
    st1.typeRuns.observe(0);
    st1.typeRuns.observe(0);
    st1.typeRuns.observe(0);

    auto st2 = makeStats();
    st2.issuedWarpInstrs = 5;
    st2.issuedThreadInstrs = 20;
    st2.busyCycles = 5;
    st2.cycles = 12;
    st2.blocksRetired = 1;
    st2.activeCountHist.add(4, 5);
    st2.unitIssues[0] = 5;
    st2.unitThreadExecs[0] = 18;
    // One run of length 1 for unit 0.
    st2.typeRuns.observe(0);

    dmr::DmrStats d1;
    d1.verifiableThreadInstrs = 100;
    d1.verifiedThreadInstrs = 90;
    d1.errorsDetected = 1;
    dmr::DmrStats d2;
    d2.verifiableThreadInstrs = 50;
    d2.verifiedThreadInstrs = 50;

    stats::LaunchAggregator agg(kWarp);
    agg.addSm(st1, d1);
    agg.addSm(st2, d2);
    const auto r = agg.finish(/*cycles=*/25, /*time_ns=*/31.25,
                              /*hung=*/false);

    EXPECT_EQ(r.cycles, 25u);
    EXPECT_DOUBLE_EQ(r.timeNs, 31.25);
    EXPECT_FALSE(r.hung);

    EXPECT_EQ(r.issuedWarpInstrs, 15u);
    EXPECT_EQ(r.issuedThreadInstrs, 60u);
    EXPECT_EQ(r.busyCycles, 14u);
    EXPECT_EQ(r.smCycles, 32u);
    EXPECT_EQ(r.blocksRetired, 3u);

    EXPECT_EQ(r.activeHist.count(4), 11u);
    EXPECT_EQ(r.activeHist.count(2), 4u);
    EXPECT_EQ(r.unitIssues[0], 13u);
    EXPECT_EQ(r.unitThreadExecs[0], 48u);

    // Weighted mean of run lengths: (3*1 + 1*1) / 2 runs.
    EXPECT_DOUBLE_EQ(r.meanTypeRun[0], 2.0);
    EXPECT_EQ(r.maxTypeRun[0], 3u);
    EXPECT_EQ(r.typeRunCount[0], 2u);

    EXPECT_EQ(r.dmr.verifiableThreadInstrs, 150u);
    EXPECT_EQ(r.dmr.verifiedThreadInstrs, 140u);
    EXPECT_EQ(r.dmr.errorsDetected, 1u);
    EXPECT_NEAR(r.coverage(), 140.0 / 150.0, 1e-12);
}

TEST(LaunchAggregator, MergedTraceIsCycleSorted)
{
    auto st1 = makeStats();
    auto st2 = makeStats();
    sm::TraceEvent e;
    e.cycle = 9;
    st1.trace.push_back(e);
    e.cycle = 2;
    st1.trace.push_back(e);
    e.cycle = 5;
    st2.trace.push_back(e);

    dmr::DmrStats d;
    stats::LaunchAggregator agg(kWarp);
    agg.addSm(st1, d);
    agg.addSm(st2, d);
    const auto r = agg.finish(0, 0.0, false);
    ASSERT_EQ(r.trace.size(), 3u);
    EXPECT_EQ(r.trace[0].cycle, 2u);
    EXPECT_EQ(r.trace[1].cycle, 5u);
    EXPECT_EQ(r.trace[2].cycle, 9u);
}

TEST(LaunchAggregator, RawDistanceSamplesComeFromTheSingleTracker)
{
    auto st1 = makeStats();
    st1.trackRawDistance = true;
    st1.rawDistance.onWrite(0, 10);
    st1.rawDistance.onRead(0, 14);
    st1.rawDistance.onWrite(1, 20);
    st1.rawDistance.onRead(1, 21);
    auto st2 = makeStats();

    dmr::DmrStats d;
    stats::LaunchAggregator agg(kWarp);
    agg.addSm(st1, d);
    agg.addSm(st2, d);
    const auto r = agg.finish(0, 0.0, false);
    ASSERT_EQ(r.rawDistances.size(), 2u);
    EXPECT_EQ(std::accumulate(r.rawDistances.begin(),
                              r.rawDistances.end(), std::uint64_t{0}),
              5u);
}

TEST(LaunchAggregator, SecondRawDistanceTrackerPanics)
{
    auto st1 = makeStats();
    st1.trackRawDistance = true;
    auto st2 = makeStats();
    st2.trackRawDistance = true;

    dmr::DmrStats d;
    stats::LaunchAggregator agg(kWarp);
    agg.addSm(st1, d);
    EXPECT_THROW(agg.addSm(st2, d), std::logic_error);
}
