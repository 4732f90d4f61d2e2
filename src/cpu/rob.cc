#include "cpu/rob.hh"

#include <stdexcept>

#include "common/logging.hh"

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

RobEntry &
ReorderBuffer::allocate()
{
    if (full())
        panic("ReorderBuffer::allocate when full");
    std::size_t slot = head_ + size_;
    if (slot >= capacity_)
        slot -= capacity_;
    ++size_;
    RobEntry &entry = entries_[slot];
    entry = RobEntry{};
    entry.seq = next_seq_++;
    return entry;
}

RobEntry &
ReorderBuffer::head()
{
    if (empty())
        panic("ReorderBuffer::head when empty");
    return entries_[head_];
}

const RobEntry &
ReorderBuffer::head() const
{
    if (empty())
        panic("ReorderBuffer::head when empty");
    return entries_[head_];
}

void
ReorderBuffer::popHead()
{
    if (empty())
        panic("ReorderBuffer::popHead when empty");
    if (++head_ == capacity_)
        head_ = 0;
    --size_;
    ++head_seq_;
}

std::size_t
ReorderBuffer::slotOf(std::uint64_t seq) const
{
    // seq is in flight, so the offset from the head is below the
    // capacity and one wrap suffices.
    const std::size_t slot = head_ + (seq - head_seq_);
    return slot >= capacity_ ? slot - capacity_ : slot;
}

RobEntry &
ReorderBuffer::bySeq(std::uint64_t seq)
{
    if (!contains(seq))
        panic("ReorderBuffer::bySeq: %llu not in flight",
              static_cast<unsigned long long>(seq));
    return entries_[slotOf(seq)];
}

bool
ReorderBuffer::contains(std::uint64_t seq) const
{
    return seq >= head_seq_ && seq < head_seq_ + size_;
}

} // namespace lsim::cpu
