/**
 * @file
 * Load and store queues. The LSQ tracks in-flight memory operations
 * in program order and enforces a conservative memory dependence
 * discipline: a load may issue only once every older store has
 * computed its address; a load whose address matches an older
 * in-flight store's word is satisfied by forwarding (no cache
 * access). Stores update the data cache at commit.
 *
 * The queue is a ring in program order: insert appends at the tail
 * and returns the entry's slot, commit pops the head, and the slot
 * addresses the entry for its lifetime. A count of the leading
 * entries that hold no store without an address answers the load
 * issue condition in O(1).
 */

#ifndef LSIM_CPU_LSQ_HH
#define LSIM_CPU_LSQ_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lsim::cpu
{

/** One in-flight memory operation. */
struct LsqEntry
{
    std::uint64_t seq = 0;   ///< owning instruction's sequence number
    Addr addr = 0;
    bool is_store = false;
    bool addr_ready = false; ///< address generation completed
    bool valid = false;
};

/** Combined load/store queue with separate capacity accounting. */
class LoadStoreQueue
{
  public:
    LoadStoreQueue(unsigned load_entries, unsigned store_entries);

    /** @return true when a load (store) can be inserted. */
    bool canInsertLoad() const { return num_loads_ < load_cap_; }
    bool canInsertStore() const { return num_stores_ < store_cap_; }

    /**
     * Insert a memory op at the tail (program order).
     * @return the entry's slot, valid until it is removed.
     */
    int insert(std::uint64_t seq, Addr addr, bool is_store);

    /** Mark address generation done for the entry in @p slot. */
    void setAddrReady(int slot);

    /**
     * @return true when every store older than the entry in @p slot
     * has its address (conservative load issue condition).
     */
    bool olderStoresReady(int slot) const;

    /**
     * @return true when a store older than the entry in @p slot, to
     * the same word (8-byte granule), has a known address — the
     * load forwards and skips the cache.
     */
    bool forwardsFromStore(int slot) const;

    /** Remove the oldest entry, which must belong to @p seq
     * (commit). */
    void remove(std::uint64_t seq);

    std::size_t numLoads() const { return num_loads_; }
    std::size_t numStores() const { return num_stores_; }

  private:
    /** Position of occupied @p slot counted from the head; panics
     * when the slot holds no entry. */
    std::size_t offsetOf(int slot, const char *caller) const;

    /** Grow resolved_ over loads and stores with addresses. */
    void advanceResolved();

    unsigned load_cap_;
    unsigned store_cap_;
    std::vector<LsqEntry> ring_; ///< power-of-two size
    std::size_t mask_;
    std::size_t head_ = 0;       ///< slot of the oldest entry
    std::size_t size_ = 0;
    /**
     * Entries [head, head + resolved_) hold no store without an
     * address; when resolved_ < size_, the entry after them is such
     * a store.
     */
    std::size_t resolved_ = 0;
    std::size_t num_loads_ = 0;
    std::size_t num_stores_ = 0;
};

// The per-instruction operations are defined here so that the core's
// stages inline them.

inline std::size_t
LoadStoreQueue::offsetOf(int slot, const char *caller) const
{
    if (slot < 0 || static_cast<std::size_t>(slot) >= ring_.size() ||
        !ring_[slot].valid)
        panic("LoadStoreQueue::%s: slot %d not present", caller, slot);
    return (static_cast<std::size_t>(slot) - head_) & mask_;
}

inline void
LoadStoreQueue::advanceResolved()
{
    while (resolved_ < size_) {
        const LsqEntry &e = ring_[(head_ + resolved_) & mask_];
        if (e.is_store && !e.addr_ready)
            return;
        ++resolved_;
    }
}

inline int
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

inline void
LoadStoreQueue::setAddrReady(int slot)
{
    (void)offsetOf(slot, "setAddrReady");
    ring_[slot].addr_ready = true;
    advanceResolved();
}

inline bool
LoadStoreQueue::olderStoresReady(int slot) const
{
    return offsetOf(slot, "olderStoresReady") <= resolved_;
}

inline bool
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

inline void
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

#endif // LSIM_CPU_LSQ_HH
