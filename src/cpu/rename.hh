/**
 * @file
 * Register renaming: logical-to-physical map, free list, and a
 * physical-register ready scoreboard for one register file (the core
 * instantiates one for the integer file and one for the FP file).
 * Each physical register also lists the in-flight instructions
 * waiting for its value, so writeback wakes exactly those consumers.
 *
 * The conventional scheme: rename allocates a fresh physical
 * register for each destination and remembers the previous mapping;
 * the previous physical register is freed when the instruction
 * commits. Trace-driven simulation fetches no wrong-path
 * instructions, so no checkpoint/rollback machinery is needed — the
 * timing cost of recovery is charged via the mispredict penalty.
 */

#ifndef LSIM_CPU_RENAME_HH
#define LSIM_CPU_RENAME_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lsim::cpu
{

/** Sentinel physical register meaning "no register". */
inline constexpr int kNoPhysReg = -1;

/** Rename state for one register file. */
class RenameMap
{
  public:
    /**
     * @param num_logical Logical (architectural) register count.
     * @param num_physical Physical register count (>= num_logical).
     */
    RenameMap(unsigned num_logical, unsigned num_physical);

    /** @return true when a destination can be allocated. */
    bool hasFreeReg() const { return !free_list_.empty(); }

    /** Number of free physical registers. */
    std::size_t numFree() const { return free_list_.size(); }

    /**
     * Look up the current physical mapping of logical register
     * @p logical (for a source operand).
     */
    int lookup(int logical) const;

    /**
     * Allocate a new physical register for @p logical.
     * @param[out] prev_phys The displaced mapping, to be freed when
     *             the allocating instruction commits.
     * @return the new physical register; panics if none free
     *         (callers must check hasFreeReg()).
     */
    int allocate(int logical, int &prev_phys);

    /** Return @p phys to the free list (at commit of the displacing
     * instruction). */
    void release(int phys);

    /** @return true when physical register @p phys holds its value. */
    bool isReady(int phys) const;

    /** Mark @p phys as holding its value (writeback). */
    void setReady(int phys);

    /**
     * List instruction @p seq as waiting for @p phys, which must not
     * be ready yet (rename). An instruction reading @p phys twice is
     * listed twice.
     */
    void addConsumer(int phys, std::uint64_t seq);

    /**
     * Writeback: mark @p phys ready, then pass each consumer listed
     * on it to @p fn in listing order and empty the list.
     *
     * @tparam Fn callable (std::uint64_t seq).
     */
    template <typename Fn>
    void
    wakeConsumers(int phys, Fn &&fn)
    {
        setReady(phys);
        std::vector<std::uint64_t> &list = consumers_[phys];
        for (const std::uint64_t seq : list)
            fn(seq);
        list.clear();
    }

    unsigned numLogical() const { return num_logical_; }
    unsigned numPhysical() const { return num_physical_; }

  private:
    unsigned num_logical_;
    unsigned num_physical_;
    std::vector<int> map_;          ///< logical -> physical
    std::vector<int> free_list_;    ///< LIFO free pool
    std::vector<bool> ready_;       ///< physical ready bits
    /** Per physical register: instructions waiting for its value. */
    std::vector<std::vector<std::uint64_t>> consumers_;
};

// The per-instruction operations are defined here so that the core's
// stages inline them.

inline int
RenameMap::lookup(int logical) const
{
    if (logical < 0 || logical >= static_cast<int>(num_logical_))
        panic("RenameMap::lookup: bad logical register %d", logical);
    return map_[logical];
}

inline int
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

inline void
RenameMap::release(int phys)
{
    if (phys < 0 || phys >= static_cast<int>(num_physical_))
        panic("RenameMap::release: bad physical register %d", phys);
    if (free_list_.size() >= num_physical_ - num_logical_)
        panic("RenameMap::release: free list overflow");
    free_list_.push_back(phys);
}

inline bool
RenameMap::isReady(int phys) const
{
    if (phys == kNoPhysReg)
        return true;
    return ready_[phys];
}

inline void
RenameMap::setReady(int phys)
{
    if (phys < 0 || phys >= static_cast<int>(num_physical_))
        panic("RenameMap::setReady: bad physical register %d", phys);
    ready_[phys] = true;
}

inline void
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

#endif // LSIM_CPU_RENAME_HH
