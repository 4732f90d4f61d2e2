#include "cpu/rename.hh"

#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace lsim::cpu
{

RenameMap::RenameMap(unsigned num_logical, unsigned num_physical)
    : num_logical_(num_logical), num_physical_(num_physical)
{
    if (num_physical_ < num_logical_)
        throw std::invalid_argument(
            "RenameMap: " + std::to_string(num_physical_) +
            " physical < " + std::to_string(num_logical_) +
            " logical registers");
    map_.resize(num_logical_);
    ready_.assign(num_physical_, false);
    consumers_.resize(num_physical_);
    // Architectural state occupies physical registers [0, logical);
    // these hold committed values and are ready.
    for (unsigned i = 0; i < num_logical_; ++i) {
        map_[i] = static_cast<int>(i);
        ready_[i] = true;
    }
    free_list_.reserve(num_physical_ - num_logical_);
    for (unsigned i = num_physical_; i > num_logical_; --i)
        free_list_.push_back(static_cast<int>(i - 1));
}

int
RenameMap::lookup(int logical) const
{
    if (logical < 0 || logical >= static_cast<int>(num_logical_))
        panic("RenameMap::lookup: bad logical register %d", logical);
    return map_[logical];
}

int
RenameMap::allocate(int logical, int &prev_phys)
{
    if (free_list_.empty())
        panic("RenameMap::allocate with empty free list");
    if (logical < 0 || logical >= static_cast<int>(num_logical_))
        panic("RenameMap::allocate: bad logical register %d", logical);
    const int phys = free_list_.back();
    free_list_.pop_back();
    if (!consumers_[phys].empty())
        panic("RenameMap::allocate: physical register %d still has "
              "waiting consumers", phys);
    prev_phys = map_[logical];
    map_[logical] = phys;
    ready_[phys] = false;
    return phys;
}

void
RenameMap::release(int phys)
{
    if (phys < 0 || phys >= static_cast<int>(num_physical_))
        panic("RenameMap::release: bad physical register %d", phys);
    if (free_list_.size() >= num_physical_ - num_logical_)
        panic("RenameMap::release: free list overflow");
    free_list_.push_back(phys);
}

bool
RenameMap::isReady(int phys) const
{
    if (phys == kNoPhysReg)
        return true;
    return ready_[phys];
}

void
RenameMap::setReady(int phys)
{
    if (phys < 0 || phys >= static_cast<int>(num_physical_))
        panic("RenameMap::setReady: bad physical register %d", phys);
    ready_[phys] = true;
}

void
RenameMap::addConsumer(int phys, std::uint64_t seq)
{
    if (phys < 0 || phys >= static_cast<int>(num_physical_))
        panic("RenameMap::addConsumer: bad physical register %d", phys);
    if (ready_[phys])
        panic("RenameMap::addConsumer: physical register %d is ready",
              phys);
    consumers_[phys].push_back(seq);
}

} // namespace lsim::cpu
