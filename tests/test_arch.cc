/**
 * @file
 * Unit tests: arch-layer pieces not covered elsewhere — GpuConfig
 * validation and WarpContext state.
 */

#include <gtest/gtest.h>

#include "arch/gpu_config.hh"
#include "arch/warp_context.hh"
#include "common/logging.hh"

using namespace warped;
using arch::GpuConfig;
using arch::WarpContext;

TEST(GpuConfig, DefaultsMatchTable3)
{
    const auto c = GpuConfig::paperDefault();
    EXPECT_EQ(c.numSms, 30u);
    EXPECT_EQ(c.warpSize, 32u);
    EXPECT_EQ(c.lanesPerCluster, 4u);
    EXPECT_EQ(c.maxThreadsPerSm, 1024u);
    EXPECT_DOUBLE_EQ(c.cyclePeriodNs(), 1.25);
    EXPECT_EQ(c.clustersPerWarp(), 8u);
    EXPECT_EQ(c.warpsPerBlock(256), 8u);
    EXPECT_EQ(c.warpsPerBlock(48), 2u); // tail warp counts
    c.validate(); // must not throw
}

TEST(GpuConfig, ValidationCatchesNonsense)
{
    setVerbose(false);
    auto bad = [](auto mutate) {
        auto c = GpuConfig::testDefault();
        mutate(c);
        EXPECT_THROW(c.validate(), std::runtime_error);
    };
    bad([](GpuConfig &c) { c.warpSize = 0; });
    bad([](GpuConfig &c) { c.warpSize = 65; });
    bad([](GpuConfig &c) { c.lanesPerCluster = 3; });
    bad([](GpuConfig &c) { c.numSms = 0; });
    bad([](GpuConfig &c) { c.maxThreadsPerSm = 16; });
    bad([](GpuConfig &c) { c.rfStages = 0; });
    bad([](GpuConfig &c) { c.clockGhz = 0.0; });
    bad([](GpuConfig &c) { c.numSchedulers = 0; });
    bad([](GpuConfig &c) { c.numSchedulers = 5; });
}

TEST(WarpContext, ValidLanesForTailWarp)
{
    // Block of 50 threads: warp 1 holds threads 32..49.
    WarpContext w(32, 8, /*block*/ 0, /*warp*/ 1, /*threads*/ 50,
                  /*dim*/ 50, /*grid*/ 1);
    EXPECT_EQ(w.validLanes().count(), 18u);
    EXPECT_TRUE(w.validLanes().test(0));
    EXPECT_TRUE(w.validLanes().test(17));
    EXPECT_FALSE(w.validLanes().test(18));
    EXPECT_EQ(w.tid(0), 32u);
    EXPECT_EQ(w.tid(17), 49u);
}

TEST(WarpContext, RegistersIsolatedPerLane)
{
    WarpContext w(32, 8, 0, 0, 32, 32, 1);
    w.setReg(3, 5, 0xaaaa);
    w.setReg(4, 5, 0xbbbb);
    EXPECT_EQ(w.reg(3, 5), 0xaaaau);
    EXPECT_EQ(w.reg(4, 5), 0xbbbbu);
    EXPECT_EQ(w.reg(3, 6), 0u);
}

TEST(WarpContext, RegisterBoundsPanics)
{
    setVerbose(false);
    WarpContext w(32, 8, 0, 0, 32, 32, 1);
    EXPECT_THROW(w.reg(32, 0), std::logic_error);
    EXPECT_THROW(w.setReg(0, 8, 1), std::logic_error);
}

TEST(WarpContext, ExitLifecycle)
{
    WarpContext w(32, 8, 0, 0, 32, 32, 1);
    EXPECT_FALSE(w.finished());
    w.markExited(LaneMask::full(16)); // half the threads
    EXPECT_FALSE(w.finished());
    EXPECT_EQ(w.stack().activeMask().count(), 16u);
    w.markExited(LaneMask::full(32));
    EXPECT_TRUE(w.finished());
}
