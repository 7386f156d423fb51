/**
 * @file
 * Binary trace format suite: the compact on-disk rendering
 * (trace/binary.hh) must be a lossless stand-in for the Chrome JSON
 * exporter. The contract under test, in order of importance:
 *
 *  1. binary capture -> readBinaryTrace -> writeChromeTrace is
 *     byte-identical to exporting JSON directly, on the same three
 *     golden workloads the golden-trace suite pins;
 *  2. the stream is deterministic: independent launches of the same
 *     configuration serialize to identical bytes (the worker-count /
 *     `--jobs` independence the Recorder guarantees);
 *  3. ring-drop accounting survives the round trip (header count ==
 *     the launch's trace.dropped counter);
 *  4. malformed input (bad magic, wrong version, truncation, unknown
 *     event kind) is rejected with a diagnostic, never misparsed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "trace/binary.hh"
#include "trace/export.hh"
#include "workloads/workload.hh"

using namespace warped;

namespace {

// Plain data on purpose: gtest has no printer for this type, so it
// lists each case with a dump of the object's bytes. A pointer member
// would put load addresses into the listed test names, and those move
// with the binary's layout and with the build directory's path.
struct BinCase
{
    char label[16];
};

const BinCase kCases[] = {{"bfs"}, {"scan"}, {"matrixmul"}};

// Same miniature instances (and machine shape) the golden-trace
// suite runs, so equivalence here extends transitively to the
// checked-in goldens.
std::unique_ptr<workloads::Workload>
makeCase(const BinCase &c)
{
    const std::string label = c.label;
    if (label == "bfs")
        return workloads::makeBfs(1);
    if (label == "scan")
        return workloads::makeScan(1);
    return workloads::makeMatrixMul(32);
}

struct TracedRun
{
    gpu::LaunchResult result;
    std::string name;
};

TracedRun
runTraced(const BinCase &c, unsigned ring_capacity = 128)
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 2;
    cfg.traceEvents = true;
    cfg.traceRingCapacity = ring_capacity;

    auto w = makeCase(c);
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
    TracedRun tr{workloads::runVerified(*w, g), w->name()};
    EXPECT_FALSE(tr.result.hung);
    return tr;
}

std::string
toBinary(const TracedRun &tr)
{
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(
        os, tr.result.events, tr.name,
        tr.result.metrics.counterValue("trace.dropped"));
    return os.str();
}

} // namespace

class BinaryTraceWorkload : public ::testing::TestWithParam<BinCase>
{
};

TEST_P(BinaryTraceWorkload, ConvertedJsonMatchesDirectExport)
{
    const auto tr = runTraced(GetParam());
    const std::string direct =
        trace::chromeTraceJson(tr.result.events, tr.name);

    std::istringstream in(toBinary(tr), std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    ASSERT_TRUE(trace::readBinaryTrace(in, bt, err)) << err;

    EXPECT_EQ(bt.label, tr.name);
    EXPECT_EQ(bt.events.size(), tr.result.events.size());
    EXPECT_EQ(trace::chromeTraceJson(bt.events, bt.label), direct);
}

TEST_P(BinaryTraceWorkload, IndependentLaunchesSerializeIdentically)
{
    // The Recorder's determinism contract: per-launch private rings,
    // merged in (cycle, sm, seq) order, so the same configuration
    // yields the same stream no matter how many campaign workers
    // (--jobs) run other launches around it. Two back-to-back
    // launches are the in-process form of that guarantee.
    const std::string first = toBinary(runTraced(GetParam()));
    const std::string second = toBinary(runTraced(GetParam()));
    EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BinaryTraceWorkload, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<BinCase> &info) {
        return std::string(info.param.label);
    });

TEST(BinaryTrace, DropAccountingSurvivesRoundTrip)
{
    // A 16-entry ring on a workload with hundreds of thousands of
    // events: almost everything is overwritten, and the header must
    // carry the exact drop count so trace consumers can tell a short
    // run from a clipped one.
    const auto tr = runTraced(kCases[0], /*ring_capacity=*/16);
    const std::uint64_t dropped =
        tr.result.metrics.counterValue("trace.dropped");
    ASSERT_GT(dropped, 0u);

    std::istringstream in(toBinary(tr), std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    ASSERT_TRUE(trace::readBinaryTrace(in, bt, err)) << err;
    EXPECT_EQ(bt.dropped, dropped);
    EXPECT_EQ(bt.events.size(), tr.result.events.size());
}

TEST(BinaryTrace, EmptyStreamRoundTrips)
{
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(os, {}, "empty", 0);

    std::istringstream in(os.str(), std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    ASSERT_TRUE(trace::readBinaryTrace(in, bt, err)) << err;
    EXPECT_EQ(bt.label, "empty");
    EXPECT_EQ(bt.dropped, 0u);
    EXPECT_TRUE(bt.events.empty());
}

TEST(BinaryTrace, RejectsBadMagic)
{
    std::istringstream in(std::string("NOPE") + std::string(64, '\0'),
                          std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(BinaryTrace, RejectsWrongVersion)
{
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(os, {}, "v", 0);
    std::string bytes = os.str();
    bytes[4] = 0x7f; // version low byte (offset 4, little-endian)

    std::istringstream in(bytes, std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(BinaryTrace, RejectsTruncatedRecords)
{
    trace::Event ev;
    ev.cycle = 42;
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(os, {ev, ev}, "t", 0);
    std::string bytes = os.str();
    bytes.resize(bytes.size() - 1); // clip the final record

    std::istringstream in(bytes, std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(BinaryTrace, RejectsUnknownEventKind)
{
    trace::Event ev;
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(os, {ev}, "k", 0);
    std::string bytes = os.str();
    // kind byte sits at record offset 38; the record starts after
    // the 28-byte header + 1-byte label.
    bytes[28 + 1 + 38] = static_cast<char>(0xee);

    std::istringstream in(bytes, std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("kind"), std::string::npos) << err;
}

TEST(BinaryTrace, RejectsImplausibleLabelLength)
{
    // A damaged header can claim any label length; allocating on its
    // say-so would turn a bad file into a bad_alloc. The reader
    // bounds the label outright.
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(os, {}, "x", 0);
    std::string bytes = os.str();
    for (int i = 0; i < 4; ++i)
        bytes[24 + i] = static_cast<char>(0xff); // label_len field
    std::istringstream in(bytes, std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("label length"), std::string::npos) << err;
}

TEST(BinaryTrace, TruncatedLabelIsRejected)
{
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(os, {}, "abcdef", 0);
    std::string bytes = os.str();
    bytes.resize(bytes.size() - 3); // clip inside the label
    std::istringstream in(bytes, std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("truncated label"), std::string::npos) << err;
}

TEST(BinaryTrace, LyingRecordCountIsRejectedWithoutAllocating)
{
    // count = 2^56 with zero records present: the reservation is
    // capped, so the reader fails on the missing first record
    // instead of attempting an exabyte allocation.
    std::ostringstream os(std::ios::binary);
    trace::writeBinaryTrace(os, {}, "c", 0);
    std::string bytes = os.str();
    bytes[8 + 7] = 0x01; // count field (offset 8, little-endian)
    std::istringstream in(bytes, std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("truncated at record 0"), std::string::npos)
        << err;
}

TEST(BinaryTrace, PartialHeaderIsRejected)
{
    std::istringstream in(std::string("WDTR\x01\x00", 6),
                          std::ios::binary);
    trace::BinaryTrace bt;
    std::string err;
    EXPECT_FALSE(trace::readBinaryTrace(in, bt, err));
    EXPECT_NE(err.find("header"), std::string::npos) << err;
}
