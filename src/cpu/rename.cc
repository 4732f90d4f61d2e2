#include "cpu/rename.hh"

#include <stdexcept>
#include <string>

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

} // namespace lsim::cpu
