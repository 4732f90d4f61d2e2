/**
 * @file
 * The full memory system of Table 2: split L1 I/D caches, a unified
 * L2, instruction and data TLBs, and a flat memory latency behind
 * the L2.
 */

#ifndef LSIM_CACHE_HIERARCHY_HH
#define LSIM_CACHE_HIERARCHY_HH

#include <memory>

#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "common/types.hh"

namespace lsim::cache
{

/** Configuration of the whole hierarchy (Table 2 defaults). */
struct HierarchyConfig
{
    CacheConfig l1i{"L1I", 64 * 1024, 4, 64, 2};
    CacheConfig l1d{"L1D", 64 * 1024, 4, 64, 2};
    CacheConfig l2{"L2", 2 * 1024 * 1024, 8, 128, 12};
    TlbConfig itlb{"ITLB", 256, 4, 8 * 1024, 30};
    TlbConfig dtlb{"DTLB", 512, 4, 8 * 1024, 30};
    Cycle memory_latency = 80;
};

/** Owns and wires the cache levels and TLBs. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config = {});

    /**
     * Instruction fetch of the line containing @p pc.
     * @return total latency including any ITLB miss penalty; a
     * 2-cycle L1I hit returns 2.
     */
    Cycle fetch(Addr pc);

    /**
     * Data access at @p addr.
     * @return total latency including any DTLB miss penalty.
     */
    Cycle data(Addr addr, bool is_write);

    const Cache &l1i() const { return *l1i_; }
    const Cache &l1d() const { return *l1d_; }
    const Cache &l2() const { return *l2_; }
    const Tlb &itlb() const { return *itlb_; }
    const Tlb &dtlb() const { return *dtlb_; }
    const HierarchyConfig &config() const { return config_; }

    /** Invalidate every cache and TLB. */
    void flushAll();

  private:
    HierarchyConfig config_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Tlb> itlb_;
    std::unique_ptr<Tlb> dtlb_;
};

// The access path is defined here so that the core's stages inline
// it.

inline Cycle
MemoryHierarchy::fetch(Addr pc)
{
    return itlb_->access(pc) + l1i_->access(pc, false);
}

inline Cycle
MemoryHierarchy::data(Addr addr, bool is_write)
{
    return dtlb_->access(addr) + l1d_->access(addr, is_write);
}

} // namespace lsim::cache

#endif // LSIM_CACHE_HIERARCHY_HH
