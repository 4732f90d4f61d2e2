#include "cpu/lsq.hh"

#include <bit>
#include <stdexcept>

#include "common/logging.hh"

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

std::size_t
LoadStoreQueue::offsetOf(int slot, const char *caller) const
{
    if (slot < 0 || static_cast<std::size_t>(slot) >= ring_.size() ||
        !ring_[slot].valid)
        panic("LoadStoreQueue::%s: slot %d not present", caller, slot);
    return (static_cast<std::size_t>(slot) - head_) & mask_;
}

void
LoadStoreQueue::advanceResolved()
{
    while (resolved_ < size_) {
        const LsqEntry &e = ring_[(head_ + resolved_) & mask_];
        if (e.is_store && !e.addr_ready)
            return;
        ++resolved_;
    }
}

int
LoadStoreQueue::insert(std::uint64_t seq, Addr addr, bool is_store)
{
    if (is_store && !canInsertStore())
        panic("LoadStoreQueue: store insert when full");
    if (!is_store && !canInsertLoad())
        panic("LoadStoreQueue: load insert when full");
    if (size_ > 0 && ring_[(head_ + size_ - 1) & mask_].seq >= seq)
        panic("LoadStoreQueue: insert out of program order");

    const std::size_t slot = (head_ + size_) & mask_;
    LsqEntry &e = ring_[slot];
    e.seq = seq;
    e.addr = addr;
    e.is_store = is_store;
    e.addr_ready = false;
    e.valid = true;
    ++size_;
    if (is_store)
        ++num_stores_;
    else
        ++num_loads_;
    advanceResolved();
    return static_cast<int>(slot);
}

void
LoadStoreQueue::setAddrReady(int slot)
{
    (void)offsetOf(slot, "setAddrReady");
    ring_[slot].addr_ready = true;
    advanceResolved();
}

bool
LoadStoreQueue::olderStoresReady(int slot) const
{
    return offsetOf(slot, "olderStoresReady") <= resolved_;
}

bool
LoadStoreQueue::forwardsFromStore(int slot) const
{
    const std::size_t older = offsetOf(slot, "forwardsFromStore");
    const Addr word = ring_[slot].addr >> 3;
    for (std::size_t i = 0; i < older; ++i) {
        const LsqEntry &e = ring_[(head_ + i) & mask_];
        if (e.is_store && e.addr_ready && (e.addr >> 3) == word)
            return true;
    }
    return false;
}

void
LoadStoreQueue::remove(std::uint64_t seq)
{
    LsqEntry &e = ring_[head_];
    if (size_ == 0 || e.seq != seq)
        panic("LoadStoreQueue::remove: seq %llu not present at the "
              "head",
              static_cast<unsigned long long>(seq));
    if (e.is_store)
        --num_stores_;
    else
        --num_loads_;
    e.valid = false;
    head_ = (head_ + 1) & mask_;
    --size_;
    if (resolved_ > 0)
        --resolved_;
    advanceResolved();
}

} // namespace lsim::cpu
