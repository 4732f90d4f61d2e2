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

} // namespace lsim::cpu

#endif // LSIM_CPU_LSQ_HH
