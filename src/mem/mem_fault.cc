#include "mem/mem_fault.hh"

#include <cstring>

#include "common/logging.hh"
#include "mem/codec.hh"

namespace warped {
namespace mem {

const char *
memFaultKindSlug(MemFaultKind k)
{
    switch (k) {
      case MemFaultKind::Bit:
        return "membit";
      case MemFaultKind::DoubleBit:
        return "memdouble";
      case MemFaultKind::ChipBurst:
        return "memchip";
    }
    return "?";
}

namespace {

/** Data-bit mask (over the 32-bit stored word) an upset corrupts. */
RegValue
upsetMask(MemFaultKind kind, unsigned bit)
{
    const unsigned b = bit % 32;
    switch (kind) {
      case MemFaultKind::Bit:
        return RegValue{1} << b;
      case MemFaultKind::DoubleBit:
        return (RegValue{1} << b) | (RegValue{1} << ((b + 1) % 32));
      case MemFaultKind::ChipBurst:
        return RegValue{0xF} << (b & ~3u);
    }
    return 0;
}

} // namespace

void
MemAccessLog::note(Addr addr, Cycle now, MemAccess type)
{
    const Addr word = addr / 4;
    if (word >= head_.size())
        return;
    std::uint32_t &tail = tail_[word];
    if (tail != kEnd && segs_[tail].type == type) {
        segs_[tail].last = now;
        return;
    }
    const auto idx = static_cast<std::uint32_t>(segs_.size());
    segs_.push_back({now, kEnd, type});
    if (tail == kEnd)
        head_[word] = idx;
    else
        segs_[tail].next = idx;
    tail = idx;
}

MemAccess
MemAccessLog::firstAt(Addr addr, Cycle t) const
{
    const Addr word = addr / 4;
    if (word >= head_.size())
        return MemAccess::None;
    for (auto i = head_[word]; i != kEnd; i = segs_[i].next)
        if (segs_[i].last >= t)
            return segs_[i].type;
    return MemAccess::None;
}

std::size_t
MemAccessLog::bytes() const
{
    return (head_.capacity() + tail_.capacity()) * sizeof(std::uint32_t) +
           segs_.capacity() * sizeof(Segment);
}

CodecStatus
MemFaultPlane::readStatus(arch::EccKind ecc, MemFaultKind kind,
                          unsigned bit)
{
    MemFaultPlane probe(ecc);
    probe.inject(0, kind, bit, 0);
    probe.filterWord(0, 0);
    if (probe.corrected() > 0)
        return CodecStatus::Corrected;
    return probe.uncorrectable() > 0 ? CodecStatus::Detected
                                     : CodecStatus::Ok;
}

void
MemFaultPlane::inject(Addr word_addr, MemFaultKind kind, unsigned bit,
                      Cycle at)
{
    if (word_addr % 4 != 0)
        warped_panic("memory upset address ", word_addr,
                     " not word-aligned");
    addr_ = word_addr;
    kind_ = kind;
    bit_ = bit;
    at_ = at;
    live_ = true;
}

RegValue
MemFaultPlane::applyRead(RegValue raw)
{
    ++consumedReads_;
    const RegValue mask = upsetMask(kind_, bit_);

    switch (ecc_) {
      case arch::EccKind::None:
        return raw ^ mask;

      case arch::EccKind::Secded: {
        const SecdedCode &code = secded32();
        SecdedCode::Codeword cw = code.encode(raw);
        for (unsigned i = 0; i < 32; ++i)
            if ((mask >> i) & 1)
                cw.flip(code.dataPosition(i));
        const SecdedCode::Decoded dec = code.decode(cw);
        if (dec.status == CodecStatus::Corrected) {
            ++corrected_;
            live_ = false; // controller scrubs the repaired word
            return raw;
        }
        if (dec.status == CodecStatus::Detected)
            ++uncorrectable_;
        // Detected: decoded (still corrupt) data reaches the lane
        // with the DUE flag raised. Ok: a silent alias — the burst
        // landed on another codeword and propagates undetected.
        return static_cast<RegValue>(dec.data);
      }

      case arch::EccKind::Chipkill: {
        // Data symbols occupy codeword bits [0,32), so the stored-
        // word mask corrupts the codeword verbatim.
        const ChipkillCode &code = chipkill();
        const ChipkillCode::Decoded dec =
            code.decode(code.encode(raw) ^ mask);
        if (dec.status == CodecStatus::Corrected) {
            ++corrected_;
            live_ = false;
            return raw;
        }
        if (dec.status == CodecStatus::Detected)
            ++uncorrectable_;
        return dec.data;
      }
    }
    return raw;
}

void
MemFaultPlane::noteSpan(Addr addr, std::size_t n, MemAccess type)
{
    // Every word w with addr < w + 4 && addr + n > w (n > 0):
    // onWrite's test.
    for (Addr w = addr & ~Addr{3}; w < addr + n; w += 4)
        log_->note(w, now_, type);
}

RegValue
MemFaultPlane::filterWord(Addr addr, RegValue raw)
{
    // The upset word is only ever matched by an aligned load.
    if (log_ && addr % 4 == 0) [[unlikely]]
        log_->note(addr, now_, MemAccess::Read);
    if (!live_ || addr != addr_ || now_ < at_)
        return raw;
    return applyRead(raw);
}

RegValue
MemFaultPlane::goldenWord(const std::uint8_t *mem_base) const
{
    RegValue v;
    std::memcpy(&v, mem_base + addr_, 4);
    return v;
}

std::uint8_t
MemFaultPlane::filterByte(Addr addr, std::uint8_t raw,
                          const std::uint8_t *mem_base)
{
    if (log_) [[unlikely]]
        log_->note(addr, now_, MemAccess::Read);
    if (!live_ || addr < addr_ || addr >= addr_ + 4 || now_ < at_)
        return raw;
    const RegValue seen = applyRead(goldenWord(mem_base));
    return static_cast<std::uint8_t>(seen >> (8 * (addr - addr_)));
}

void
MemFaultPlane::patchCopyOut(Addr addr, void *dst, std::size_t n,
                            const std::uint8_t *mem_base)
{
    if (n == 0)
        return; // an empty readback reads nothing
    if (log_) [[unlikely]]
        noteSpan(addr, n, MemAccess::Read);
    if (!live_ || now_ < at_)
        return;
    const Addr lo = addr > addr_ ? addr : addr_;
    const Addr hi_read = addr + n;
    const Addr hi_word = addr_ + 4;
    const Addr hi = hi_read < hi_word ? hi_read : hi_word;
    if (lo >= hi)
        return;
    const RegValue seen = applyRead(goldenWord(mem_base));
    auto *out = static_cast<std::uint8_t *>(dst);
    for (Addr a = lo; a < hi; ++a)
        out[a - addr] = static_cast<std::uint8_t>(
            seen >> (8 * (a - addr_)));
}

void
MemFaultPlane::onWrite(Addr addr, std::size_t n)
{
    // An empty store touches no word. Without this return the overlap
    // test below would hold for one that starts inside the upset word,
    // and noteSpan would log a write to it.
    if (n == 0)
        return;
    if (log_) [[unlikely]]
        noteSpan(addr, n, MemAccess::Write);
    if (!live_ || now_ < at_)
        return;
    if (addr < addr_ + 4 && addr + n > addr_)
        live_ = false; // store re-encodes the word: upset gone
}

void
MemFaultPlane::reset()
{
    live_ = false;
    now_ = 0;
    consumedReads_ = 0;
    corrected_ = 0;
    uncorrectable_ = 0;
}

} // namespace mem
} // namespace warped
