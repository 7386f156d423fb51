/**
 * @file
 * Unit and property tests: the SECDED and chipkill codecs, and how a
 * memory upset they correct or flag classifies on the path a
 * campaign's memory sites take (a mem::Memory behind a
 * mem::MemFaultPlane, classified by fault::classifyMemOutcome) — the
 * substrate behind the paper's "memory is protected, only execution
 * units are vulnerable" fault model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/campaign_engine.hh"
#include "gpu/gpu.hh"
#include "kernel_fuzzer.hh"
#include "mem/codec.hh"
#include "mem/mem_fault.hh"
#include "mem/memory.hh"

using namespace warped;
using fault::OutcomeClass;
using mem::ChipkillCode;
using mem::CodecStatus;
using mem::MemFaultKind;
using mem::SecdedCode;

// ---------------------------------------------------------------------------
// ECC / DMR interplay. A memory upset is read through the configured
// codec before any execution unit sees the word, so both redundant
// executions consume the same decoded value and DMR's comparator has
// nothing to compare: what happens to the upset is the codec's call.
// A single-bit upset SECDED corrects is EccCorrected — never Detected,
// and never Recovered, since classifyMemOutcome takes no recovery
// input. A double-bit upset is ECC's own detected-uncorrectable event
// (a machine check, so a DUE), not something DMR's comparator or the
// recovery engine can claim credit for.
// ---------------------------------------------------------------------------

namespace {

/// One memory site on the SECDED machine: @p value stored in a
/// mem::Memory behind a Secded plane, an upset of @p kind at @p bit
/// struck at cycle 0.
struct SecdedSite
{
    static constexpr Addr kAddr = 16;
    mem::Memory m{64};
    mem::MemFaultPlane plane{arch::EccKind::Secded};
    RegValue golden;

    SecdedSite(RegValue value, MemFaultKind kind, unsigned bit)
        : golden(value)
    {
        m.writeWord(kAddr, golden);
        m.attachFaultPlane(&plane);
        plane.inject(kAddr, kind, bit, /*at=*/0);
    }

    /// Read the word once and classify the run as the campaign
    /// engine does, given whether DMR fired (@p detected).
    OutcomeClass
    readAndClassify(bool detected = false)
    {
        const bool outputOk = m.readWord(kAddr) == golden;
        return fault::classifyMemOutcome(
            plane.consumedReads() > 0, plane.uncorrectable() > 0,
            plane.corrected() > 0, detected, /*hung=*/false, outputOk);
    }
};

} // namespace

TEST(EccDmrInterplay, CorrectedMemoryUpsetClassifiesAsEccCorrected)
{
    SecdedSite s(0xdeadbeefu, MemFaultKind::Bit, 21);
    EXPECT_EQ(s.readAndClassify(), OutcomeClass::EccCorrected);
    EXPECT_EQ(s.plane.consumedReads(), 1u);
    EXPECT_EQ(s.plane.corrected(), 1u);
    EXPECT_EQ(s.plane.uncorrectable(), 0u);
    // The corrected read scrubbed the cell: the next read is clean.
    EXPECT_EQ(s.m.readWord(SecdedSite::kAddr), 0xdeadbeefu);
    EXPECT_EQ(s.plane.consumedReads(), 1u);
}

TEST(EccDmrInterplay, EverySingleBitUpsetIsEccCorrectedNeverRecovered)
{
    // Property form: any single-bit upset in any stored word is
    // absorbed by SECDED, so the whole single-bit memory fault space
    // contributes only EccCorrected outcomes to a campaign.
    Rng rng(23);
    for (unsigned trial = 0; trial < 4; ++trial) {
        const auto v = static_cast<RegValue>(rng.next());
        for (unsigned bit = 0; bit < 32; ++bit) {
            SecdedSite s(v, MemFaultKind::Bit, bit);
            EXPECT_EQ(s.readAndClassify(), OutcomeClass::EccCorrected)
                << "value " << v << " bit " << bit;
            EXPECT_EQ(s.plane.uncorrectable(), 0u);
        }
    }
    // No combination of a memory site's flags classifies as
    // Recovered: rollback-replay repairs what DMR detected, and the
    // memory taxonomy has no input through which it could.
    for (unsigned flags = 0; flags < 64; ++flags) {
        const auto bit = [flags](unsigned i) -> bool {
            return (flags >> i) & 1u;
        };
        EXPECT_NE(fault::classifyMemOutcome(bit(0), bit(1), bit(2),
                                            bit(3), bit(4), bit(5)),
                  OutcomeClass::Recovered)
            << "flags " << flags;
    }
}

TEST(EccDmrInterplay, DoubleErrorIsEccsDueNotDmrs)
{
    // An uncorrectable read is one of the memory DUE sources worth
    // telling apart from execution-side detections (dos Santos et
    // al., arXiv 2108.00554).
    SecdedSite s(0x12345678u, MemFaultKind::DoubleBit, 3);
    EXPECT_EQ(s.readAndClassify(), OutcomeClass::Due);
    EXPECT_EQ(s.plane.uncorrectable(), 1u);
    EXPECT_EQ(s.plane.corrected(), 0u);

    // The machine check outranks a DMR alarm on the same run: the
    // codec flagged the error first, so the run stays ECC's DUE and
    // DMR cannot claim it as Detected.
    SecdedSite both(0x12345678u, MemFaultKind::DoubleBit, 3);
    EXPECT_EQ(both.readAndClassify(/*detected=*/true), OutcomeClass::Due);
}

// ---------------------------------------------------------------------------
// Configurable codec family (mem/codec.*): the runtime-width SECDED
// and the GF(16) chipkill code behind `--ecc {secded,chipkill}`.
// These are the exhaustive guarantees the memory fault campaigns
// lean on: every classification in a campaign report reduces to one
// of the decode outcomes proven here.
// ---------------------------------------------------------------------------

class SecdedCodeWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SecdedCodeWidths, CleanRoundTripIsExact)
{
    const SecdedCode code(GetParam());
    const std::uint64_t mask =
        code.dataBits() == 64 ? ~0ull : (1ull << code.dataBits()) - 1;
    Rng rng(31 + GetParam());
    for (unsigned trial = 0; trial < 256; ++trial) {
        const std::uint64_t v = rng.next() & mask;
        const auto dec = code.decode(code.encode(v));
        ASSERT_EQ(dec.status, CodecStatus::Ok);
        ASSERT_EQ(dec.data, v);
    }
}

TEST_P(SecdedCodeWidths, EverySingleBitFlipIsCorrected)
{
    const SecdedCode code(GetParam());
    const std::uint64_t mask =
        code.dataBits() == 64 ? ~0ull : (1ull << code.dataBits()) - 1;
    Rng rng(47 + GetParam());
    for (unsigned trial = 0; trial < 16; ++trial) {
        const std::uint64_t v = rng.next() & mask;
        const auto cw = code.encode(v);
        for (unsigned bit = 0; bit < code.codeBits(); ++bit) {
            auto c = cw;
            c.flip(bit);
            const auto dec = code.decode(c);
            ASSERT_EQ(dec.status, CodecStatus::Corrected)
                << "k=" << code.dataBits() << " bit " << bit;
            ASSERT_EQ(dec.data, v)
                << "k=" << code.dataBits() << " bit " << bit;
        }
    }
}

TEST_P(SecdedCodeWidths, EveryDoubleBitFlipIsDetected)
{
    const SecdedCode code(GetParam());
    const std::uint64_t mask =
        code.dataBits() == 64 ? ~0ull : (1ull << code.dataBits()) - 1;
    Rng rng(59 + GetParam());
    // Exhaustive over bit pairs; a few random data words is plenty
    // since the syndrome of a flip pattern is data-independent.
    for (unsigned trial = 0; trial < 4; ++trial) {
        const std::uint64_t v = rng.next() & mask;
        const auto cw = code.encode(v);
        for (unsigned a = 0; a < code.codeBits(); ++a) {
            for (unsigned b = a + 1; b < code.codeBits(); ++b) {
                auto c = cw;
                c.flip(a);
                c.flip(b);
                ASSERT_EQ(code.decode(c).status, CodecStatus::Detected)
                    << "k=" << code.dataBits() << " bits " << a << ","
                    << b;
            }
        }
    }
}

TEST_P(SecdedCodeWidths, DataPositionsIndexStoredDataBits)
{
    // Flipping the codeword position dataPosition(i) must flip
    // exactly data bit i after (corrected) decode of a clean word's
    // neighbour — the fault plane relies on this to corrupt a chosen
    // stored cell.
    const SecdedCode code(GetParam());
    const std::uint64_t mask =
        code.dataBits() == 64 ? ~0ull : (1ull << code.dataBits()) - 1;
    const std::uint64_t v = 0xa5a5a5a5a5a5a5a5ull & mask;
    const auto cw = code.encode(v);
    for (unsigned i = 0; i < code.dataBits(); ++i) {
        auto c = cw;
        c.flip(code.dataPosition(i));
        const auto dec = code.decode(c);
        EXPECT_EQ(dec.status, CodecStatus::Corrected);
        EXPECT_EQ(dec.data, v) << "data bit " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWordWidths, SecdedCodeWidths,
                         ::testing::Values(8u, 16u, 32u, 64u));

TEST(SecdedCodeShape, CheckBitCountsMatchTheClassicCodes)
{
    // (13,8), (22,16), (39,32), (72,64): k + ceil-log check bits + 1
    // overall parity.
    EXPECT_EQ(SecdedCode(8).codeBits(), 13u);
    EXPECT_EQ(SecdedCode(16).codeBits(), 22u);
    EXPECT_EQ(SecdedCode(32).codeBits(), 39u);
    EXPECT_EQ(SecdedCode(64).codeBits(), 72u);
}

TEST(SecdedCodeShape, RejectsUnsupportedWidths)
{
    setVerbose(false);
    EXPECT_THROW(SecdedCode(0), std::logic_error);
    EXPECT_THROW(SecdedCode(65), std::logic_error);
}

TEST(Chipkill, CleanRoundTripIsExact)
{
    const ChipkillCode &code = mem::chipkill();
    Rng rng(71);
    for (unsigned trial = 0; trial < 512; ++trial) {
        const auto v = static_cast<std::uint32_t>(rng.next());
        const auto dec = code.decode(code.encode(v));
        ASSERT_EQ(dec.status, CodecStatus::Ok);
        ASSERT_EQ(dec.data, v);
    }
}

TEST(Chipkill, EverySingleSymbolCorruptionIsCorrected)
{
    // The chipkill guarantee: any error confined to one 4-bit symbol
    // (up to a whole dead chip slice) is repaired exactly. Exhaustive
    // over all 11 symbols x 15 non-zero corruption patterns.
    const ChipkillCode &code = mem::chipkill();
    Rng rng(83);
    for (unsigned trial = 0; trial < 32; ++trial) {
        const auto v = static_cast<std::uint32_t>(rng.next());
        const std::uint64_t cw = code.encode(v);
        for (unsigned sym = 0; sym < ChipkillCode::kSymbols; ++sym) {
            for (unsigned pat = 1; pat < 16; ++pat) {
                const std::uint64_t bad =
                    cw ^ (static_cast<std::uint64_t>(pat)
                          << (sym * ChipkillCode::kSymbolBits));
                const auto dec = code.decode(bad);
                ASSERT_EQ(dec.status, CodecStatus::Corrected)
                    << "symbol " << sym << " pattern " << pat;
                ASSERT_EQ(dec.data, v)
                    << "symbol " << sym << " pattern " << pat;
            }
        }
    }
}

TEST(Chipkill, EveryDoubleSymbolCorruptionIsFlagged)
{
    // Minimum distance 4: two corrupted symbols are beyond correction
    // but never silently accepted or miscorrected.
    const ChipkillCode &code = mem::chipkill();
    Rng rng(97);
    for (unsigned trial = 0; trial < 4; ++trial) {
        const auto v = static_cast<std::uint32_t>(rng.next());
        const std::uint64_t cw = code.encode(v);
        for (unsigned s0 = 0; s0 < ChipkillCode::kSymbols; ++s0) {
            for (unsigned s1 = s0 + 1; s1 < ChipkillCode::kSymbols;
                 ++s1) {
                for (unsigned pair = 0; pair < 8; ++pair) {
                    const auto p0 =
                        1 + static_cast<unsigned>(rng.nextBelow(15));
                    const auto p1 =
                        1 + static_cast<unsigned>(rng.nextBelow(15));
                    const std::uint64_t bad =
                        cw ^
                        (static_cast<std::uint64_t>(p0)
                         << (s0 * ChipkillCode::kSymbolBits)) ^
                        (static_cast<std::uint64_t>(p1)
                         << (s1 * ChipkillCode::kSymbolBits));
                    ASSERT_EQ(code.decode(bad).status,
                              CodecStatus::Detected)
                        << "symbols " << s0 << "," << s1;
                }
            }
        }
    }
}

TEST(Chipkill, CorrectsTheBurstSecdedWouldMiscount)
{
    // The qualitative step past SECDED: a 4-bit aligned burst (one
    // dead chip) is an even-weight multi-bit error. SECDED flags it
    // at best; chipkill repairs it exactly.
    const ChipkillCode &code = mem::chipkill();
    const std::uint32_t v = 0xdeadbeefu;
    const std::uint64_t cw = code.encode(v);
    const std::uint64_t burst = cw ^ (0xfull << 12); // symbol 3 dies
    const auto dec = code.decode(burst);
    EXPECT_EQ(dec.status, CodecStatus::Corrected);
    EXPECT_EQ(dec.data, v);
}

TEST(CodecProperty, FuzzedKernelImagesSurviveBothCodecs)
{
    // Round-trip property on "real" data: memory images produced by
    // randomly generated kernels (same generator and seeds as the
    // fuzz suite) must pass through every codec unchanged, and a
    // single upset injected into any such word must still decode back
    // to it.
    setVerbose(false);
    const SecdedCode &s32 = mem::secded32();
    const ChipkillCode &ck = mem::chipkill();
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
        testutil::KernelFuzzer fuzz(seed);
        const isa::Program prog = fuzz.generate(/*out base*/ 256);
        auto cfg = arch::GpuConfig::testDefault();
        cfg.numSms = 2;
        gpu::Gpu g(cfg, dmr::DmrConfig::off());
        const Addr out = g.allocator().alloc(64 * 4);
        ASSERT_EQ(out, 256u);
        (void)g.launch(prog, 1, 64);
        std::vector<std::uint32_t> img(64);
        g.mem().copyOut(out, img.data(), img.size() * 4);

        Rng rng(seed * 1000 + 5);
        for (const std::uint32_t w : img) {
            ASSERT_EQ(s32.decode(s32.encode(w)).data, w);
            ASSERT_EQ(ck.decode(ck.encode(w)).data, w);
            // One random stored-bit upset per codec round-trips too.
            auto cw = s32.encode(w);
            cw.flip(s32.dataPosition(
                static_cast<unsigned>(rng.nextBelow(32))));
            const auto ds = s32.decode(cw);
            ASSERT_EQ(ds.status, CodecStatus::Corrected);
            ASSERT_EQ(ds.data, w);
            const auto bit = static_cast<unsigned>(rng.nextBelow(32));
            const auto dc = ck.decode(ck.encode(w) ^ (1ull << bit));
            ASSERT_EQ(dc.status, CodecStatus::Corrected);
            ASSERT_EQ(dc.data, w);
        }
    }
}
