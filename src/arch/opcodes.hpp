/**
 * @file
 * Functional-unit opcode set.
 *
 * PCU functional units perform 32-bit word-level arithmetic and binary
 * operations, including floating point and integer operations (§3.1).
 * Transcendentals (exp/log/sqrt) are included as pipelined special
 * functions; they occupy one logical stage like every other FU op.
 */

#ifndef PLAST_ARCH_OPCODES_HPP
#define PLAST_ARCH_OPCODES_HPP

#include <cstdint>
#include <string>

namespace plast
{

enum class FuOp : uint8_t
{
    kNop = 0,     ///< dst = a (copy / register move)
    // Integer arithmetic
    kIAdd, kISub, kIMul, kIDiv, kIMod,
    kIMin, kIMax, kIAbs,
    // Bitwise / shifts
    kAnd, kOr, kXor, kNot, kShl, kShr,
    // Integer compares (produce 0/1)
    kILt, kILe, kIGt, kIGe, kIEq, kINe,
    // Float arithmetic
    kFAdd, kFSub, kFMul, kFDiv,
    kFMin, kFMax, kFAbs, kFNeg,
    // Float compares (produce 0/1)
    kFLt, kFLe, kFGt, kFGe, kFEq, kFNe,
    // Special functions
    kFExp, kFLog, kFSqrt, kFRecip,
    // Conversions
    kI2F, kF2I,
    // Ternary select: dst = a ? b : c
    kMux,
    // Fused multiply-add: dst = a * b + c (float)
    kFMA,
    // Integer multiply-add: dst = a * b + c (affine addressing)
    kIMA,
    kNumOps
};

/** Each serialized enum declares its last value; text readers reject
 *  anything outside `0..enumLast(E{})` (base/textio.hpp). */
constexpr FuOp enumLast(FuOp) { return FuOp::kIMA; }

/** True for ops whose reduction identity/semantics are floating point. */
bool fuOpIsFloat(FuOp op);

/** Number of register-operand inputs the op consumes (1, 2, or 3). */
int fuOpArity(FuOp op);

/** Mnemonic for printing configurations. */
std::string fuOpName(FuOp op);

/**
 * Identity element for using this op as a reduction combiner
 * (kFAdd -> 0.0f, kIAdd -> 0, kFMin -> +inf, ...). Panics for
 * non-associative ops.
 */
uint32_t fuOpIdentity(FuOp op);

/** True if the op is associative and usable as a reduce combiner. */
bool fuOpIsReducible(FuOp op);

} // namespace plast

#endif // PLAST_ARCH_OPCODES_HPP
