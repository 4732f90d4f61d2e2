#include "cpu/fu_pool.hh"

#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace lsim::cpu
{

FuPool::FuPool(unsigned num_units)
    : num_units_(num_units)
{
    if (num_units_ == 0 || num_units_ > 8)
        throw std::invalid_argument(
            "FuPool: unit count " + std::to_string(num_units_) +
            " outside [1,8]");
    units_.resize(num_units_);
    idle_.resize(num_units_);
}

void
FuPool::finish()
{
    for (unsigned fu = 0; fu < num_units_; ++fu) {
        closeRun(fu);
        idle_[fu].finish();
    }
}

Cycle
FuPool::busyCycles(unsigned fu) const
{
    if (fu >= num_units_)
        panic("FuPool::busyCycles: bad unit %u", fu);
    return units_[fu].busy_total;
}

const sleep::IdleIntervalRecorder &
FuPool::idleStats(unsigned fu) const
{
    if (fu >= num_units_)
        panic("FuPool::idleStats: bad unit %u", fu);
    return idle_[fu];
}

double
FuPool::utilization(unsigned fu) const
{
    return cycles_ ? static_cast<double>(busyCycles(fu)) /
        static_cast<double>(cycles_) : 0.0;
}

} // namespace lsim::cpu
