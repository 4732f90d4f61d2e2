/**
 * @file
 * Dynamic micro-operation record produced by the workload generator
 * and consumed by the timing model. The trace is "pre-executed":
 * branch outcomes and memory addresses are already resolved, and the
 * timing model's job is to discover how fast the machine could have
 * run it (standard trace-driven simulation).
 */

#ifndef LSIM_TRACE_OP_HH
#define LSIM_TRACE_OP_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace lsim::trace
{

/** Operation classes, a condensed Alpha-like mix. */
enum class OpClass : std::uint8_t
{
    IntAlu,   ///< single-cycle integer ALU op
    IntMult,  ///< integer multiply (long latency, pipelined)
    Load,     ///< memory load (agen on an integer ALU + D-cache)
    Store,    ///< memory store (agen on an integer ALU)
    Branch,   ///< conditional branch (executes on an integer ALU)
    Call,     ///< subroutine call (pushes RAS, integer ALU)
    Return,   ///< subroutine return (pops RAS, integer ALU)
    FpAlu,    ///< floating point add/sub/cmp
    FpMult,   ///< floating point multiply/divide
};

/** Number of distinct op classes. */
inline constexpr unsigned kNumOpClasses = 9;

/** @return mnemonic for an op class. */
std::string to_string(OpClass cls);

// The class predicates and execLatency are defined here so that the
// generator and the core's stages inline them.

/** @return true for classes executed by the integer functional units
 * (including load/store address generation, as in SimpleScalar). */
inline bool
isIntClass(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::IntMult:
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
        return true;
      default:
        return false;
    }
}

/** @return true for loads and stores. */
inline bool
isMemClass(OpClass cls)
{
    return cls == OpClass::Load || cls == OpClass::Store;
}

/** @return true for control transfer classes. */
inline bool
isControlClass(OpClass cls)
{
    return cls == OpClass::Branch || cls == OpClass::Call ||
        cls == OpClass::Return;
}

/** @return true for floating point classes. */
inline bool
isFpClass(OpClass cls)
{
    return cls == OpClass::FpAlu || cls == OpClass::FpMult;
}

/** Logical register count per file (int and fp each). */
inline constexpr int kNumLogicalRegs = 32;

/** One dynamic instruction. */
struct MicroOp
{
    Addr pc = 0;             ///< instruction address
    OpClass cls = OpClass::IntAlu;
    std::int16_t dst = kNoReg;  ///< destination logical register
    std::int16_t src1 = kNoReg; ///< first source logical register
    std::int16_t src2 = kNoReg; ///< second source logical register
    Addr mem_addr = 0;       ///< effective address (mem classes)
    bool taken = false;      ///< resolved direction (control classes)
    Addr target = 0;         ///< resolved target (control classes)

    bool isInt() const { return isIntClass(cls); }
    bool isMem() const { return isMemClass(cls); }
    bool isControl() const { return isControlClass(cls); }
    bool isFp() const { return isFpClass(cls); }
    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
};

/** Execution latency in cycles of each op class (post-issue). */
inline Cycle
execLatency(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
        return 1;
      case OpClass::IntMult:
        return 7;
      case OpClass::Load:
      case OpClass::Store:
        return 1; // address generation; cache latency added separately
      case OpClass::FpAlu:
        return 4;
      case OpClass::FpMult:
        return 4;
    }
    panic("unknown OpClass %d", static_cast<int>(cls));
}

} // namespace lsim::trace

#endif // LSIM_TRACE_OP_HH
