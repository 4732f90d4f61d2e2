#include "trace/op.hh"

#include "common/logging.hh"

namespace lsim::trace
{

std::string
to_string(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
        return "IntAlu";
      case OpClass::IntMult:
        return "IntMult";
      case OpClass::Load:
        return "Load";
      case OpClass::Store:
        return "Store";
      case OpClass::Branch:
        return "Branch";
      case OpClass::Call:
        return "Call";
      case OpClass::Return:
        return "Return";
      case OpClass::FpAlu:
        return "FpAlu";
      case OpClass::FpMult:
        return "FpMult";
    }
    panic("unknown OpClass %d", static_cast<int>(cls));
}

} // namespace lsim::trace
