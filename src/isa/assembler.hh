/**
 * @file
 * Text assembler: parses the disassembly format Program::disassemble
 * emits, so kernels can live in standalone text files and round-trip
 * losslessly. Grammar (one instruction per line):
 *
 *   .kernel <name>  (regs <N>, shared <M>B)
 *     <pc>:  MNEMONIC [rD][, rS...][, #imm][, [rA+off]]
 *            [-> target [(reconv R)]]
 *
 * Operand shape is dictated by the opcode's metadata (the same
 * X-macro table the disassembler uses), so the parser accepts exactly
 * what the printer produces.
 */

#ifndef WARPED_ISA_ASSEMBLER_HH
#define WARPED_ISA_ASSEMBLER_HH

#include <string>

#include "isa/program.hh"

namespace warped {
namespace isa {

/**
 * Parse a program from its textual form. Calls warped_fatal with a
 * line-numbered message on any syntax error, unknown mnemonic or
 * number out of range (immediates and offsets must fit an int32;
 * counts, PCs and targets must be non-negative); the returned program
 * has passed Program::validate(), whose errors name the program.
 */
Program parseProgram(const std::string &text);

} // namespace isa
} // namespace warped

#endif // WARPED_ISA_ASSEMBLER_HH
