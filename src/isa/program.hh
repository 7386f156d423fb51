/**
 * @file
 * A kernel program: the instruction stream plus resource metadata.
 */

#ifndef WARPED_ISA_PROGRAM_HH
#define WARPED_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace warped {
namespace isa {

/**
 * Most registers a kernel may declare. The DMR engine and the ReplayQ
 * track register reads and writes as bits of one 64-bit mask.
 */
constexpr unsigned kMaxRegs = 64;

/**
 * An immutable kernel image produced by the KernelBuilder.
 */
class Program
{
  public:
    Program() = default;
    Program(std::string name, std::vector<Instruction> instrs,
            unsigned num_regs, unsigned shared_bytes);

    const std::string &name() const { return name_; }
    const std::vector<Instruction> &instructions() const { return instrs_; }
    const Instruction &at(Pc pc) const { return instrs_.at(pc); }
    Pc size() const { return static_cast<Pc>(instrs_.size()); }
    bool empty() const { return instrs_.empty(); }

    /** Registers per thread this kernel requires. */
    unsigned numRegs() const { return numRegs_; }

    /** Shared-memory bytes per thread block. */
    unsigned sharedBytes() const { return sharedBytes_; }

    /**
     * Structural validation: at most kMaxRegs registers, branch
     * targets in range, register indices within numRegs, a reachable
     * EXIT present. Calls warped_fatal on violation.
     */
    void validate() const;

    /** Full disassembly listing. */
    std::string disassemble() const;

  private:
    std::string name_;
    std::vector<Instruction> instrs_;
    unsigned numRegs_ = 0;
    unsigned sharedBytes_ = 0;
};

} // namespace isa
} // namespace warped

#endif // WARPED_ISA_PROGRAM_HH
