#include "cpu/issue_queue.hh"

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

} // namespace lsim::cpu
