/**
 * @file
 * Unit tests: the software-scheme comparison harness and transfer
 * model (§5.3).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "redundancy/scheme.hh"

using namespace warped;
using namespace warped::redundancy;
using protection::SchemeId;

TEST(TransferModel, LinearInBytesPlusSetup)
{
    TransferModel tm;
    tm.bandwidthGBps = 4.0;
    tm.perCallUs = 10.0;
    // 4 GB/s == 4 B/ns: 4000 bytes -> 1000 ns + 10 us setup.
    EXPECT_DOUBLE_EQ(tm.timeNs(4000), 1000.0 + 10000.0);
    EXPECT_DOUBLE_EQ(tm.timeNs(0), 10000.0);
    EXPECT_DOUBLE_EQ(tm.timeNs(4000, 2), 1000.0 + 20000.0);
}

namespace {

struct SchemeFixture : ::testing::Test
{
    SchemeFixture() : cfg(arch::GpuConfig::testDefault())
    {
        setVerbose(false);
        cfg.numSms = 4;
    }
    arch::GpuConfig cfg;
};

} // namespace

TEST_F(SchemeFixture, RNaiveDoublesKernelAndTransfers)
{
    const auto orig = runScheme(SchemeId::Original, "SHA", cfg);
    const auto naive = runScheme(SchemeId::RNaive, "SHA", cfg);
    EXPECT_DOUBLE_EQ(naive.kernelNs, 2.0 * orig.kernelNs);
    EXPECT_DOUBLE_EQ(naive.transferNs, 2.0 * orig.transferNs);
}

TEST_F(SchemeFixture, RThreadBetween1xAnd2x)
{
    const auto orig = runScheme(SchemeId::Original, "SHA", cfg);
    const auto rthr = runScheme(SchemeId::RThread, "SHA", cfg);
    EXPECT_GE(rthr.kernelNs, 0.9 * orig.kernelNs);
    EXPECT_LE(rthr.kernelNs, 2.2 * orig.kernelNs);
    // Output transfer duplicated, input not.
    EXPECT_GT(rthr.transferNs, orig.transferNs);
    EXPECT_LT(rthr.transferNs, 2.0 * orig.transferNs + 1.0);
}

TEST_F(SchemeFixture, HardwareSchemesKeepTransfersUnchanged)
{
    const auto orig = runScheme(SchemeId::Original, "SHA", cfg);
    const auto dmtr = runScheme(SchemeId::Dmtr, "SHA", cfg);
    const auto warped = runScheme(SchemeId::WarpedDmr, "SHA", cfg);
    EXPECT_DOUBLE_EQ(dmtr.transferNs, orig.transferNs);
    EXPECT_DOUBLE_EQ(warped.transferNs, orig.transferNs);
}

TEST_F(SchemeFixture, WarpedDmrIsCheapestProtection)
{
    const auto naive = runScheme(SchemeId::RNaive, "SCAN", cfg);
    const auto rthr = runScheme(SchemeId::RThread, "SCAN", cfg);
    const auto dmtr = runScheme(SchemeId::Dmtr, "SCAN", cfg);
    const auto warped = runScheme(SchemeId::WarpedDmr, "SCAN", cfg);
    EXPECT_LE(warped.totalNs(), naive.totalNs());
    EXPECT_LE(warped.totalNs(), rthr.totalNs());
    EXPECT_LE(warped.totalNs(), dmtr.totalNs() * 1.02);
}

TEST_F(SchemeFixture, DmtrCoversEverything)
{
    const auto dmtr = runScheme(SchemeId::Dmtr, "BitonicSort", cfg);
    // DMTR temporally verifies every instruction, partial warps too.
    EXPECT_DOUBLE_EQ(dmtr.launch.coverage(), 1.0);
    EXPECT_EQ(dmtr.launch.dmr.intraVerifiedThreads, 0u);
}
