/**
 * @file
 * The memory-cell fault plane and the banked DRAM timing model: what
 * a campaign's memory-fault runs actually exercise. Covers the
 * per-codec read filtering (None propagates, SECDED corrects/flags,
 * chipkill repairs whole-symbol bursts), the strike/write-ordering
 * semantics, byte and bulk-copy interposition through mem::Memory,
 * plane reuse via reset(), the golden access log a recording plane
 * fills (and the codec property the campaign's use of it rests on),
 * open-row bank timing, and the RandomFaultHook reset-replay
 * guarantee checkpoint resume relies on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "mem/mem_fault.hh"
#include "mem/memory.hh"
#include "mem/memory_system.hh"

using namespace warped;
using mem::MemAccess;
using mem::MemAccessLog;
using mem::MemFaultKind;
using mem::MemFaultPlane;

namespace {

/// A Memory with one golden word at kAddr and a plane attached.
constexpr Addr kAddr = 8;
constexpr RegValue kGolden = 0xcafebabe;

struct PlaneRig
{
    mem::Memory m{64};
    MemFaultPlane plane;

    explicit PlaneRig(arch::EccKind ecc) : plane(ecc)
    {
        m.writeWord(kAddr, kGolden);
        m.attachFaultPlane(&plane);
    }
};

} // namespace

TEST(MemFaultPlane, SlugsAreStable)
{
    EXPECT_STREQ(memFaultKindSlug(MemFaultKind::Bit), "membit");
    EXPECT_STREQ(memFaultKindSlug(MemFaultKind::DoubleBit),
                 "memdouble");
    EXPECT_STREQ(memFaultKindSlug(MemFaultKind::ChipBurst), "memchip");
}

TEST(MemFaultPlane, ReadsBeforeTheStrikeAreCleanAndUncounted)
{
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, /*at*/ 10);
    r.plane.setNow(9);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden);
    EXPECT_EQ(r.plane.consumedReads(), 0u);
}

TEST(MemFaultPlane, NoEccPropagatesTheCorruptedWord)
{
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    r.plane.setNow(10);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden ^ (1u << 5));
    EXPECT_EQ(r.plane.consumedReads(), 1u);
    EXPECT_EQ(r.plane.corrected(), 0u);
    EXPECT_EQ(r.plane.uncorrectable(), 0u);
    // Other words are untouched.
    EXPECT_EQ(r.m.readWord(kAddr + 4), 0u);
}

TEST(MemFaultPlane, SecdedCorrectsAndScrubsASingleBit)
{
    PlaneRig r(arch::EccKind::Secded);
    r.plane.inject(kAddr, MemFaultKind::Bit, 17, 10);
    r.plane.setNow(12);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden);
    EXPECT_EQ(r.plane.corrected(), 1u);
    // The corrected read scrubbed the cell: the next read is clean
    // and no longer even consumes the (disarmed) upset.
    EXPECT_EQ(r.m.readWord(kAddr), kGolden);
    EXPECT_EQ(r.plane.consumedReads(), 1u);
    EXPECT_EQ(r.plane.corrected(), 1u);
}

TEST(MemFaultPlane, SecdedFlagsADoubleBitAsUncorrectable)
{
    PlaneRig r(arch::EccKind::Secded);
    r.plane.inject(kAddr, MemFaultKind::DoubleBit, 3, 10);
    r.plane.setNow(10);
    (void)r.m.readWord(kAddr);
    EXPECT_EQ(r.plane.uncorrectable(), 1u);
    EXPECT_EQ(r.plane.corrected(), 0u);
    // Uncorrectable is sticky machine-check state: the upset stays
    // in the cell (no scrub happened) and keeps flagging.
    (void)r.m.readWord(kAddr);
    EXPECT_EQ(r.plane.uncorrectable(), 2u);
}

TEST(MemFaultPlane, SecdedSilentlyAliasesAnAlignedChipBurst)
{
    // The motivating gap: a 4-bit aligned burst flips data bits
    // 12..15, whose SECDED positions XOR to a zero syndrome with even
    // parity — the codec sees a clean word and hands corrupted data
    // to the pipeline (candidate SDC, neither corrected nor flagged).
    PlaneRig r(arch::EccKind::Secded);
    r.plane.inject(kAddr, MemFaultKind::ChipBurst, 13, 10);
    r.plane.setNow(10);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden ^ (0xfu << 12));
    EXPECT_EQ(r.plane.consumedReads(), 1u);
    EXPECT_EQ(r.plane.corrected(), 0u);
    EXPECT_EQ(r.plane.uncorrectable(), 0u);
}

TEST(MemFaultPlane, ChipkillRepairsTheSameBurstExactly)
{
    PlaneRig r(arch::EccKind::Chipkill);
    r.plane.inject(kAddr, MemFaultKind::ChipBurst, 13, 10);
    r.plane.setNow(10);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden);
    EXPECT_EQ(r.plane.corrected(), 1u);
    EXPECT_EQ(r.plane.uncorrectable(), 0u);
}

TEST(MemFaultPlane, ChipkillCorrectsAPairInsideOneSymbol)
{
    // Bits 0 and 1 share symbol 0: still a single-symbol error.
    PlaneRig r(arch::EccKind::Chipkill);
    r.plane.inject(kAddr, MemFaultKind::DoubleBit, 0, 10);
    r.plane.setNow(10);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden);
    EXPECT_EQ(r.plane.corrected(), 1u);
}

TEST(MemFaultPlane, ChipkillFlagsAPairAcrossSymbols)
{
    // Bits 3 and 4 straddle symbols 0 and 1: two corrupted symbols
    // exceed the distance-4 correction radius.
    PlaneRig r(arch::EccKind::Chipkill);
    r.plane.inject(kAddr, MemFaultKind::DoubleBit, 3, 10);
    r.plane.setNow(10);
    (void)r.m.readWord(kAddr);
    EXPECT_EQ(r.plane.uncorrectable(), 1u);
    EXPECT_EQ(r.plane.corrected(), 0u);
}

TEST(MemFaultPlane, WriteAtOrAfterStrikeClearsTheUpset)
{
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    r.plane.setNow(11);
    r.m.writeWord(kAddr, 0x1234);
    EXPECT_EQ(r.m.readWord(kAddr), 0x1234u);
    EXPECT_EQ(r.plane.consumedReads(), 0u);
}

TEST(MemFaultPlane, WriteBeforeStrikeLeavesThePendingUpsetArmed)
{
    // The cell flips *later*: a pre-strike store re-encodes a clean
    // word, then the strike corrupts the new contents.
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    r.plane.setNow(4);
    r.m.writeWord(kAddr, 0x1234);
    r.plane.setNow(10);
    EXPECT_EQ(r.m.readWord(kAddr), 0x1234u ^ (1u << 5));
}

TEST(MemFaultPlane, UnrelatedWritesDoNotDisarm)
{
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    r.plane.setNow(12);
    r.m.writeWord(kAddr + 4, 7);
    r.m.writeByte(kAddr - 1, 9);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden ^ (1u << 5));
}

TEST(MemFaultPlane, ByteReadsSeeTheCorruptedLane)
{
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 13, 10); // byte 1, bit 5
    r.plane.setNow(10);
    EXPECT_EQ(r.m.readByte(kAddr + 0), kGolden & 0xff);
    EXPECT_EQ(r.m.readByte(kAddr + 1),
              ((kGolden >> 8) & 0xff) ^ (1u << 5));
    EXPECT_EQ(r.m.readByte(kAddr + 2), (kGolden >> 16) & 0xff);
    // SECDED sees the same byte read and corrects it.
    PlaneRig s(arch::EccKind::Secded);
    s.plane.inject(kAddr, MemFaultKind::Bit, 13, 10);
    s.plane.setNow(10);
    EXPECT_EQ(s.m.readByte(kAddr + 1), (kGolden >> 8) & 0xff);
    EXPECT_EQ(s.plane.corrected(), 1u);
}

TEST(MemFaultPlane, CopyOutIsPatchedLikeDeviceLoads)
{
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    r.plane.setNow(10);
    // A bulk readback spanning the upset word, at unaligned offsets.
    std::uint8_t buf[16];
    r.m.copyOut(kAddr - 2, buf, sizeof buf);
    RegValue w = 0;
    std::memcpy(&w, buf + 2, 4);
    EXPECT_EQ(w, kGolden ^ (1u << 5));
    EXPECT_EQ(buf[0], 0u);
    EXPECT_EQ(r.plane.consumedReads(), 1u);
    // Under SECDED the same readback is transparently repaired.
    PlaneRig s(arch::EccKind::Secded);
    s.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    s.plane.setNow(10);
    std::uint32_t word = 0;
    s.m.copyOut(kAddr, &word, 4);
    EXPECT_EQ(word, kGolden);
    EXPECT_EQ(s.plane.corrected(), 1u);
}

TEST(MemFaultPlane, ResetDisarmsAndZeroesCounters)
{
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    r.plane.setNow(10);
    (void)r.m.readWord(kAddr);
    EXPECT_EQ(r.plane.consumedReads(), 1u);
    r.plane.reset();
    EXPECT_EQ(r.plane.consumedReads(), 0u);
    EXPECT_EQ(r.plane.corrected(), 0u);
    EXPECT_EQ(r.plane.uncorrectable(), 0u);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden);
    EXPECT_EQ(r.plane.consumedReads(), 0u);
}

TEST(MemFaultPlane, RejectsUnalignedInjection)
{
    setVerbose(false);
    MemFaultPlane p(arch::EccKind::None);
    EXPECT_THROW(p.inject(6, MemFaultKind::Bit, 0, 0),
                 std::logic_error);
}

// ---------------------------------------------------------------------------
// Golden access log.
// ---------------------------------------------------------------------------

namespace {

/// A 64-byte Memory recording into a log that covers its first 12
/// words (the "footprint"); words 12..15 lie outside it.
struct RecordRig
{
    static constexpr std::size_t kFootprintWords = 12;
    mem::Memory m{64};
    MemFaultPlane plane{arch::EccKind::Secded};
    MemAccessLog log{kFootprintWords};

    RecordRig()
    {
        plane.recordInto(&log);
        m.attachFaultPlane(&plane);
    }
};

} // namespace

TEST(MemAccessLog, AStrikeAtTheAccessCycleSeesIt)
{
    RecordRig r;
    r.plane.setNow(10);
    (void)r.m.readWord(kAddr);
    // The plane's rule is now >= strike: a strike at cycle 10 is read
    // at cycle 10, one at 11 never is.
    EXPECT_EQ(r.log.firstAt(kAddr, 0), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(kAddr, 10), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(kAddr, 11), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(kAddr + 4, 0), MemAccess::None);
}

TEST(MemAccessLog, WriteThenReadAndReadThenWrite)
{
    RecordRig r;
    const Addr a = 0, b = 4;
    r.plane.setNow(5);
    r.m.writeWord(a, 1);
    (void)r.m.readWord(b);
    r.plane.setNow(8);
    (void)r.m.readWord(a);
    r.m.writeWord(b, 2);
    EXPECT_EQ(r.log.firstAt(a, 0), MemAccess::Write);
    EXPECT_EQ(r.log.firstAt(a, 5), MemAccess::Write);
    EXPECT_EQ(r.log.firstAt(a, 6), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(a, 9), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(b, 5), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(b, 6), MemAccess::Write);
    EXPECT_EQ(r.log.firstAt(b, 9), MemAccess::None);
}

TEST(MemAccessLog, SameCycleAccessesKeepCallOrder)
{
    RecordRig r;
    r.plane.setNow(3);
    (void)r.m.readWord(0);
    r.plane.setNow(7);
    (void)r.m.readWord(0);
    r.m.writeWord(0, 1);
    r.m.writeWord(4, 1);
    (void)r.m.readWord(4);
    (void)r.m.readWord(4);
    r.plane.setNow(9);
    r.m.writeWord(4, 2);
    EXPECT_EQ(r.log.firstAt(0, 4), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(0, 7), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(0, 8), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(4, 7), MemAccess::Write);
    EXPECT_EQ(r.log.firstAt(4, 8), MemAccess::Write);
}

TEST(MemAccessLog, ByteReadsCountAndUnalignedWordReadsDoNot)
{
    RecordRig r;
    r.plane.setNow(2);
    (void)r.m.readByte(kAddr + 3);
    // The plane only matches an aligned load of the upset word, so an
    // unaligned load straddling two words reads neither.
    (void)r.m.readWord(kAddr + 5);
    r.m.writeByte(kAddr + 9, 1);
    EXPECT_EQ(r.log.firstAt(kAddr, 2), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(kAddr + 4, 0), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(kAddr + 8, 0), MemAccess::Write);
}

TEST(MemAccessLog, PartialCopyOutReadsEveryOverlappedWord)
{
    RecordRig r;
    r.plane.setNow(4);
    std::uint8_t buf[6];
    r.m.copyOut(kAddr + 2, buf, sizeof buf); // words kAddr, kAddr+4
    const std::uint8_t in[3] = {1, 2, 3};
    r.m.copyIn(kAddr + 15, in, sizeof in); // words kAddr+12, kAddr+16
    r.m.copyOut(kAddr + 24, buf, 0);
    EXPECT_EQ(r.log.firstAt(kAddr - 4, 0), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(kAddr, 4), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(kAddr + 4, 4), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(kAddr + 8, 0), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(kAddr + 12, 0), MemAccess::Write);
    EXPECT_EQ(r.log.firstAt(kAddr + 16, 0), MemAccess::Write);
    EXPECT_EQ(r.log.firstAt(kAddr + 20, 0), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(kAddr + 24, 0), MemAccess::None);
}

TEST(MemFaultPlane, EmptyStoreInsideTheUpsetWordLeavesItArmed)
{
    // A zero-length copy-in that starts strictly inside the upset word
    // writes none of its bytes: the upset stays armed, and a recording
    // plane logs no access, so the two stay mirrors.
    const std::uint8_t src[1] = {0};
    PlaneRig r(arch::EccKind::None);
    r.plane.inject(kAddr, MemFaultKind::Bit, 5, 10);
    r.plane.setNow(12);
    r.m.copyIn(kAddr + 2, src, 0);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden ^ (1u << 5));
    EXPECT_EQ(r.plane.consumedReads(), 1u);

    RecordRig rec;
    rec.plane.setNow(12);
    rec.m.copyIn(kAddr + 2, src, 0);
    EXPECT_EQ(rec.log.firstAt(kAddr, 0), MemAccess::None);
}

TEST(MemAccessLog, WordsOutsideTheFootprintAreNotCovered)
{
    RecordRig r;
    const Addr outside = RecordRig::kFootprintWords * 4;
    r.plane.setNow(1);
    (void)r.m.readWord(outside);
    r.m.writeWord(outside + 4, 1);
    std::uint8_t buf[8];
    r.m.copyOut(outside - 4, buf, sizeof buf);
    EXPECT_TRUE(r.log.covers(outside - 4));
    EXPECT_FALSE(r.log.covers(outside));
    EXPECT_FALSE(r.log.covers(outside + 4));
    EXPECT_EQ(r.log.firstAt(outside - 4, 0), MemAccess::Read);
    EXPECT_EQ(r.log.firstAt(outside, 0), MemAccess::None);
    EXPECT_EQ(r.log.firstAt(outside + 4, 0), MemAccess::None);
}

TEST(MemAccessLog, RecordingChangesNoValue)
{
    RecordRig r;
    r.m.writeWord(kAddr, kGolden);
    r.plane.setNow(1);
    EXPECT_EQ(r.m.readWord(kAddr), kGolden);
    EXPECT_EQ(r.m.readByte(kAddr + 1), (kGolden >> 8) & 0xff);
    RegValue w = 0;
    r.m.copyOut(kAddr, &w, 4);
    EXPECT_EQ(w, kGolden);
    EXPECT_EQ(r.plane.consumedReads(), 0u);
}

namespace {

/// One access of a replayable sequence.
struct Op
{
    enum Kind { ReadWord, ReadByte, WriteWord, WriteByte, CopyIn, CopyOut };
    Kind kind;
    Cycle at;
    Addr addr;
    std::size_t n;
};

void
replay(mem::Memory &m, MemFaultPlane &plane, const std::vector<Op> &ops)
{
    std::uint8_t buf[16] = {};
    for (const auto &op : ops) {
        plane.setNow(op.at);
        switch (op.kind) {
          case Op::ReadWord:
            (void)m.readWord(op.addr);
            break;
          case Op::ReadByte:
            (void)m.readByte(op.addr);
            break;
          case Op::WriteWord:
            m.writeWord(op.addr, 0x5a5a5a5a);
            break;
          case Op::WriteByte:
            m.writeByte(op.addr, 0x5a);
            break;
          case Op::CopyIn:
            m.copyIn(op.addr, buf, op.n);
            break;
          case Op::CopyOut:
            m.copyOut(op.addr, buf, op.n);
            break;
        }
    }
}

} // namespace

/**
 * The log mirrors the plane: for random access sequences, an upset of
 * every word at every strike cycle is consumed by a read of an armed
 * plane replaying the sequence exactly when the log says the first
 * access at or after the strike is a read.
 */
TEST(MemAccessLog, AgreesWithAnArmedPlaneOnRandomSequences)
{
    std::mt19937_64 rng(2024);
    for (int seq = 0; seq < 40; ++seq) {
        std::vector<Op> ops;
        Cycle now = 0;
        for (int i = 0; i < 24; ++i) {
            now += rng() % 3; // repeats make same-cycle accesses
            const auto kind = static_cast<Op::Kind>(rng() % 6);
            const std::size_t n = rng() % 10;
            const std::size_t width =
                kind == Op::ReadWord || kind == Op::WriteWord ? 4
                : kind == Op::ReadByte || kind == Op::WriteByte ? 1
                                                                 : n;
            const Addr addr = rng() % (64 - width + 1);
            ops.push_back({kind, now, addr, n});
        }
        RecordRig rec;
        replay(rec.m, rec.plane, ops);
        for (Addr word = 0; word < 64; word += 4) {
            for (Cycle t = 0; t <= now + 1; ++t) {
                mem::Memory m{64};
                MemFaultPlane armed(arch::EccKind::None);
                armed.inject(word, MemFaultKind::Bit, 0, t);
                m.attachFaultPlane(&armed);
                replay(m, armed, ops);
                const MemAccess first = rec.log.firstAt(word, t);
                SCOPED_TRACE("sequence " + std::to_string(seq) +
                             ", word " + std::to_string(word) +
                             ", strike " + std::to_string(t));
                if (rec.log.covers(word)) {
                    EXPECT_EQ(armed.consumedReads() > 0,
                              first == MemAccess::Read);
                } else {
                    EXPECT_EQ(first, MemAccess::None);
                }
            }
        }
    }
}

namespace {

const arch::EccKind kEccs[] = {arch::EccKind::None, arch::EccKind::Secded,
                               arch::EccKind::Chipkill};
const MemFaultKind kKinds[] = {MemFaultKind::Bit, MemFaultKind::DoubleBit,
                               MemFaultKind::ChipBurst};

} // namespace

/**
 * The campaign settles a read upset from its (ECC, kind, bit) alone,
 * which is sound only because the codes are linear: the decode status
 * (corrected, detected-uncorrectable, or neither) must not depend on
 * the stored word. Checked on every ECC x kind x bit over many random
 * words, against MemFaultPlane::readStatus's probe.
 */
TEST(MemFaultPlane, DecodeStatusDoesNotDependOnTheStoredWord)
{
    std::mt19937_64 rng(77);
    unsigned corrects = 0, detects = 0, neither = 0;
    for (const auto ecc : kEccs) {
        for (const auto kind : kKinds) {
            for (unsigned bit = 0; bit < 32; ++bit) {
                const auto status = [&](RegValue stored) {
                    MemFaultPlane p(ecc);
                    p.inject(kAddr, kind, bit, 0);
                    (void)p.filterWord(kAddr, stored);
                    EXPECT_EQ(p.consumedReads(), 1u);
                    return p.corrected()       ? mem::CodecStatus::Corrected
                           : p.uncorrectable() ? mem::CodecStatus::Detected
                                               : mem::CodecStatus::Ok;
                };
                const auto want = status(0);
                SCOPED_TRACE("ecc " + std::to_string(int(ecc)) +
                             ", kind " + memFaultKindSlug(kind) +
                             ", bit " + std::to_string(bit));
                EXPECT_EQ(MemFaultPlane::readStatus(ecc, kind, bit), want);
                for (int i = 0; i < 64; ++i)
                    EXPECT_EQ(status(static_cast<RegValue>(rng())), want);
                corrects += want == mem::CodecStatus::Corrected;
                detects += want == mem::CodecStatus::Detected;
                neither += want == mem::CodecStatus::Ok;
            }
        }
    }
    // All three outcomes occur, so the property is not vacuous.
    EXPECT_GT(corrects, 0u);
    EXPECT_GT(detects, 0u);
    EXPECT_GT(neither, 0u);
}

/**
 * The campaign simulates a memory site only when its first read is
 * silent, and lets it run with no machine-check stop: sound only if
 * every later read of the same upset is silent too, whatever words
 * the cell then holds. Checked on every ECC x kind x bit whose probe
 * reads Ok, with two more reads of other random words.
 */
TEST(MemFaultPlane, SilentAliasStaysSilentOnEveryLaterRead)
{
    std::mt19937_64 rng(91);
    unsigned silent = 0;
    for (const auto ecc : kEccs) {
        for (const auto kind : kKinds) {
            for (unsigned bit = 0; bit < 32; ++bit) {
                if (MemFaultPlane::readStatus(ecc, kind, bit) !=
                    mem::CodecStatus::Ok)
                    continue;
                ++silent;
                SCOPED_TRACE("ecc " + std::to_string(int(ecc)) +
                             ", kind " + memFaultKindSlug(kind) +
                             ", bit " + std::to_string(bit));
                for (int i = 0; i < 16; ++i) {
                    MemFaultPlane p(ecc);
                    p.inject(kAddr, kind, bit, 0);
                    for (int read = 0; read < 3; ++read)
                        (void)p.filterWord(kAddr,
                                           static_cast<RegValue>(rng()));
                    EXPECT_EQ(p.consumedReads(), 3u);
                    EXPECT_EQ(p.corrected(), 0u);
                    EXPECT_EQ(p.uncorrectable(), 0u);
                }
            }
        }
    }
    // Every read with ECC off is silent (3 kinds x 32 bits); beyond
    // those, SECDED aliases some chip bursts, so the property is not
    // vacuous for a codec.
    EXPECT_GT(silent, 96u);
}

// ---------------------------------------------------------------------------
// Banked DRAM timing.
// ---------------------------------------------------------------------------

namespace {

arch::GpuConfig
bankedCfg()
{
    auto cfg = arch::GpuConfig::testDefault();
    cfg.memModel = arch::MemModel::Banked;
    cfg.memBanks = 2;
    cfg.memRowBytes = 256;
    cfg.coalesceSegmentBytes = 128; // 2 segments per row
    cfg.memRowMissPenalty = 60;
    cfg.globalMemLatency = 100;
    cfg.memoryServicePeriod = 2;
    return cfg;
}

} // namespace

TEST(BankedMemorySystem, RowMissPaysThePenaltyRowHitDoesNot)
{
    // MemorySystem keeps a reference to its config: keep it alive.
    const auto cfg = bankedCfg();
    mem::MemorySystem ms(cfg);
    // First touch of bank 0 opens row 0: a compulsory miss.
    EXPECT_EQ(ms.access(0, std::vector<Addr>{0}), 160u); // 100 + 60
    EXPECT_EQ(ms.rowMisses(), 1u);
    EXPECT_EQ(ms.rowHits(), 0u);
    // Same row, later: open-row hit at the raw latency.
    EXPECT_EQ(ms.access(200, std::vector<Addr>{0}), 300u);
    EXPECT_EQ(ms.rowHits(), 1u);
    // Segment 4 maps to bank 0 row 1: the open row switches.
    EXPECT_EQ(ms.access(400, std::vector<Addr>{4}), 560u);
    EXPECT_EQ(ms.rowMisses(), 2u);
}

TEST(BankedMemorySystem, AdjacentSegmentsInterleaveAcrossBanks)
{
    // MemorySystem keeps a reference to its config: keep it alive.
    const auto cfg = bankedCfg();
    mem::MemorySystem ms(cfg);
    // Segments 0 and 1 land on different banks: both are compulsory
    // misses but they proceed in parallel, so the warp completes at
    // one miss latency, not two service periods apart.
    EXPECT_EQ(ms.access(0, std::vector<Addr>{0, 1}), 160u);
    EXPECT_EQ(ms.rowMisses(), 2u);
    EXPECT_EQ(ms.queueingCycles(), 0u);
}

TEST(BankedMemorySystem, SameBankConflictQueuesOnTheServicePeriod)
{
    // MemorySystem keeps a reference to its config: keep it alive.
    const auto cfg = bankedCfg();
    mem::MemorySystem ms(cfg);
    // Segments 0 and 2 both map to bank 0, same row: the second
    // transaction waits one service period behind the first (visible
    // as queueing; the first access's row miss still dominates the
    // warp's completion time).
    EXPECT_EQ(ms.access(0, std::vector<Addr>{0, 2}), 160u);
    EXPECT_EQ(ms.queueingCycles(), 2u);
    EXPECT_EQ(ms.rowMisses(), 1u);
    EXPECT_EQ(ms.rowHits(), 1u);
    EXPECT_EQ(ms.transactions(), 2u);
}

TEST(BankedMemorySystem, FlatModelKeepsRowCountersAtZero)
{
    auto cfg = bankedCfg();
    cfg.memModel = arch::MemModel::Flat;
    mem::MemorySystem ms(cfg);
    (void)ms.access(0, std::vector<Addr>{0, 1, 2, 3});
    EXPECT_EQ(ms.rowHits(), 0u);
    EXPECT_EQ(ms.rowMisses(), 0u);
    EXPECT_EQ(ms.transactions(), 4u);
}

// ---------------------------------------------------------------------------
// RandomFaultHook reset-replay: a checkpoint-resumed campaign rebuilds
// its hooks and must draw the identical corruption sequence, or the
// resumed half of the campaign silently diverges from the one-shot run.
// ---------------------------------------------------------------------------

TEST(RandomFaultHookReplay, ResetReplaysTheExactCorruptionSequence)
{
    fault::RandomFaultHook hook(0.5, 42);
    auto drive = [&hook] {
        std::vector<RegValue> out;
        for (unsigned i = 0; i < 256; ++i) {
            func::FaultCtx ctx;
            ctx.sm = i % 4;
            ctx.lane = i % 32;
            ctx.cycle = i;
            out.push_back(hook.apply(0xa5a5a5a5u + i, ctx));
        }
        return out;
    };
    const auto first = drive();
    const auto acts = hook.activations();
    EXPECT_GT(acts, 0u);

    hook.reset();
    EXPECT_EQ(hook.activations(), 0u);
    EXPECT_EQ(drive(), first);
    EXPECT_EQ(hook.activations(), acts);

    // Without the reset the stream continues instead of replaying —
    // the bug reset() exists to prevent.
    const auto cont = drive();
    EXPECT_NE(cont, first);
}
