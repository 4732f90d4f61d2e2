#include "cpu/lsq.hh"

#include <bit>
#include <stdexcept>

namespace lsim::cpu
{

LoadStoreQueue::LoadStoreQueue(unsigned load_entries,
                               unsigned store_entries)
    : load_cap_(load_entries), store_cap_(store_entries)
{
    if (load_cap_ == 0 || store_cap_ == 0)
        throw std::invalid_argument(
            "LoadStoreQueue: zero capacity");
    ring_.resize(std::bit_ceil(std::size_t{load_cap_} + store_cap_));
    mask_ = ring_.size() - 1;
}

} // namespace lsim::cpu
