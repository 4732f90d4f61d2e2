#include "cpu/issue_queue.hh"

#include <algorithm>
#include <stdexcept>

namespace lsim::cpu
{

IssueQueue::IssueQueue(unsigned capacity)
    : capacity_(capacity)
{
    if (capacity_ == 0)
        throw std::invalid_argument("IssueQueue: zero capacity");
    ready_.reserve(capacity_);
}

void
IssueQueue::insert(std::uint64_t seq, bool ready)
{
    if (full())
        panic("IssueQueue::insert when full");
    if (seq <= last_seq_)
        panic("IssueQueue::insert out of program order");
    last_seq_ = seq;
    ++size_;
    if (ready)
        ready_.push_back(seq);
}

void
IssueQueue::wake(std::uint64_t seq)
{
    if (ready_.size() == size_)
        panic("IssueQueue::wake: no entry is waiting");
    ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), seq),
                  seq);
}

} // namespace lsim::cpu
