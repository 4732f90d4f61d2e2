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
FuPool::beginCycle()
{
    if (in_cycle_)
        panic("FuPool::beginCycle without endCycle");
    in_cycle_ = true;
    allocated_ = 0;
    for (auto &u : units_)
        u.busy_now = false;
}

int
FuPool::allocate()
{
    if (!in_cycle_)
        panic("FuPool::allocate outside a cycle");
    for (unsigned i = 0; i < num_units_; ++i) {
        const unsigned fu = (rr_ptr_ + i) % num_units_;
        if (!units_[fu].busy_now) {
            units_[fu].busy_now = true;
            ++allocated_;
            rr_ptr_ = (fu + 1) % num_units_;
            return static_cast<int>(fu);
        }
    }
    return -1;
}

void
FuPool::closeRun(unsigned fu)
{
    UnitState &u = units_[fu];
    if (u.run_len == 0)
        return;
    if (sink_)
        sink_(fu, u.run_busy, u.run_len);
    if (u.run_busy)
        idle_[fu].activeRun(u.run_len);
    else
        idle_[fu].idleRun(u.run_len);
    u.run_len = 0;
}

void
FuPool::endCycle()
{
    if (!in_cycle_)
        panic("FuPool::endCycle without beginCycle");
    in_cycle_ = false;
    ++cycles_;
    for (unsigned fu = 0; fu < num_units_; ++fu) {
        UnitState &u = units_[fu];
        if (u.busy_now)
            ++u.busy_total;
        if (u.run_len > 0 && u.run_busy != u.busy_now)
            closeRun(fu);
        u.run_busy = u.busy_now;
        ++u.run_len;
    }
}

void
FuPool::creditIdle(Cycle cycles)
{
    if (in_cycle_)
        panic("FuPool::creditIdle inside a cycle");
    if (cycles == 0)
        return;
    allocated_ = 0;
    cycles_ += cycles;
    for (unsigned fu = 0; fu < num_units_; ++fu) {
        UnitState &u = units_[fu];
        u.busy_now = false;
        if (u.run_len > 0 && u.run_busy)
            closeRun(fu);
        u.run_busy = false;
        u.run_len += cycles;
    }
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
