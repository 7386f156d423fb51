#include "isa/program.hh"

#include <sstream>

#include "common/logging.hh"

namespace warped {
namespace isa {

Program::Program(std::string name, std::vector<Instruction> instrs,
                 unsigned num_regs, unsigned shared_bytes)
    : name_(std::move(name)), instrs_(std::move(instrs)),
      numRegs_(num_regs), sharedBytes_(shared_bytes)
{
}

void
Program::validate() const
{
    if (instrs_.empty())
        warped_fatal("program '", name_, "' is empty");
    if (numRegs_ > kMaxRegs)
        warped_fatal("program '", name_, "' declares ", numRegs_,
                     " registers; at most ", kMaxRegs, " are supported");

    bool has_exit = false;
    for (Pc pc = 0; pc < size(); ++pc) {
        const auto &in = instrs_[pc];
        if (in.op == Opcode::EXIT)
            has_exit = true;
        if (in.isBranch()) {
            if (in.target == kNoPc || in.target >= size())
                warped_fatal("program '", name_, "': branch at pc ", pc,
                             " has invalid target");
            if (in.op != Opcode::BRA &&
                (in.reconv == kNoPc || in.reconv > size()))
                warped_fatal("program '", name_,
                             "': conditional branch at pc ", pc,
                             " lacks a reconvergence point");
        }
        if (in.hasDst() && in.dst.idx >= numRegs_)
            warped_fatal("program '", name_, "': pc ", pc,
                         " writes r", unsigned(in.dst.idx),
                         " outside the ", numRegs_, "-register window");
        for (unsigned s = 0; s < in.numSrcs(); ++s) {
            if (in.src[s].idx >= numRegs_)
                warped_fatal("program '", name_, "': pc ", pc,
                             " reads r", unsigned(in.src[s].idx),
                             " outside the register window");
        }
    }
    if (!has_exit)
        warped_fatal("program '", name_, "' has no EXIT");
}

std::string
Program::disassemble() const
{
    std::ostringstream os;
    os << ".kernel " << name_ << "  (regs " << numRegs_ << ", shared "
       << sharedBytes_ << "B)\n";
    for (Pc pc = 0; pc < size(); ++pc)
        os << "  " << pc << ":\t" << instrs_[pc].toString() << "\n";
    return os.str();
}

} // namespace isa
} // namespace warped
