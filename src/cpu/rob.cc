#include "cpu/rob.hh"

#include <stdexcept>

namespace lsim::cpu
{

ReorderBuffer::ReorderBuffer(unsigned capacity)
    : capacity_(capacity)
{
    // Configuration error, not a model invariant: throw so the
    // CLI/daemon boundary can report it and keep serving.
    if (capacity_ == 0)
        throw std::invalid_argument("ReorderBuffer: zero capacity");
    entries_.resize(capacity_);
}

} // namespace lsim::cpu
