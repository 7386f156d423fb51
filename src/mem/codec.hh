/**
 * @file
 * ECC codec family for the memory fault model.
 *
 * Two codecs give the configurable protection the banked memory
 * model exposes:
 *
 *  - SecdedCode: a runtime-width Hamming + overall-parity code over
 *    k data bits (k in {8, 16, 32, 64} — the (39,32) instance guards
 *    the simulator's 32-bit words, and the (72,64) instance is the
 *    classic DRAM DIMM code). Single-error-correct,
 *    double-error-detect, parameterized so the exhaustive codec
 *    tests cover every supported word width.
 *
 *  - ChipkillCode: symbol correction over GF(16). A 32-bit word is
 *    split into eight 4-bit symbols (one per DRAM chip slice) and
 *    extended with three check symbols from a shortened
 *    Reed-Solomon-style code of minimum distance 4: any single
 *    corrupted *symbol* — up to 4 bits, a whole dead chip — is
 *    corrected, and any two corrupted symbols are detected. This is
 *    the qualitative step past SECDED: a 4-bit burst that SECDED can
 *    silently miscorrect is repaired exactly.
 *
 * Both codecs are pure functions of their input (no state), so one
 * shared instance serves all threads.
 */

#ifndef WARPED_MEM_CODEC_HH
#define WARPED_MEM_CODEC_HH

#include <cstdint>
#include <vector>

namespace warped {
namespace mem {

/** Decode outcome shared by every codec in this family. */
enum class CodecStatus
{
    Ok,        ///< clean codeword (or an undetectable alias)
    Corrected, ///< error found and repaired; data is exact
    Detected,  ///< uncorrectable error flagged (a memory DUE)
};

/**
 * Runtime-width SECDED: Hamming code over k data bits with check
 * bits at power-of-two positions plus an overall parity bit.
 * Codewords are up to 72 bits, carried in a (lo, hi) pair so the
 * (72,64) DIMM instance fits without compiler extensions.
 */
class SecdedCode
{
  public:
    /** A codeword as raw bits; bit i is (i < 64 ? lo >> i : hi >> (i-64)). */
    struct Codeword
    {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;

        bool bit(unsigned i) const
        {
            return i < 64 ? (lo >> i) & 1 : (hi >> (i - 64)) & 1;
        }
        void flip(unsigned i)
        {
            if (i < 64)
                lo ^= std::uint64_t{1} << i;
            else
                hi ^= std::uint64_t{1} << (i - 64);
        }
    };

    struct Decoded
    {
        std::uint64_t data = 0;
        CodecStatus status = CodecStatus::Ok;
    };

    /** @param data_bits protected word width (8, 16, 32 or 64) */
    explicit SecdedCode(unsigned data_bits);

    unsigned dataBits() const { return k_; }
    /** Total codeword bits including the overall parity bit. */
    unsigned codeBits() const { return bits_; }

    /** Codeword position (1..codeBits-1) carrying data bit @p i —
     *  exposed so fault models can flip a *stored* data bit. */
    unsigned dataPosition(unsigned i) const { return dataPos_[i]; }

    Codeword encode(std::uint64_t data) const;
    Decoded decode(Codeword cw) const;

  private:
    unsigned k_;      ///< data bits
    unsigned checks_; ///< Hamming check bits
    unsigned bits_;   ///< 1 (overall parity) + k_ + checks_
    std::vector<unsigned> dataPos_; ///< data bit -> Hamming position
};

/** GF(16) single-symbol-correct / double-symbol-detect code:
 *  8 data nibbles + 3 check nibbles = 11 symbols (44 bits). */
class ChipkillCode
{
  public:
    static constexpr unsigned kSymbolBits = 4;
    static constexpr unsigned kDataSymbols = 8;
    static constexpr unsigned kCheckSymbols = 3;
    static constexpr unsigned kSymbols = kDataSymbols + kCheckSymbols;
    static constexpr unsigned kCodeBits = kSymbols * kSymbolBits;

    struct Decoded
    {
        std::uint32_t data = 0;
        CodecStatus status = CodecStatus::Ok;
    };

    ChipkillCode();

    /** Encode 32 data bits into a 44-bit codeword; data symbol j
     *  occupies codeword bits [4j, 4j+4), checks follow. */
    std::uint64_t encode(std::uint32_t data) const;

    Decoded decode(std::uint64_t cw) const;

  private:
    std::uint8_t exp_[32];   ///< alpha^i (doubled to skip mod 15)
    std::uint8_t log_[16];   ///< discrete log, log_[0] unused
    std::uint8_t enc_[3][8]; ///< check j = XOR_i mul(enc_[j][i], d_i)
};

/** Shared immutable instances (codecs are stateless). */
const SecdedCode &secded32();
const ChipkillCode &chipkill();

} // namespace mem
} // namespace warped

#endif // WARPED_MEM_CODEC_HH
