/**
 * @file
 * Set-associative TLB with LRU replacement and a fixed miss penalty
 * (hardware page walk), per the paper's Table 2: 256/512-entry
 * 4-way, 8 KB pages, 30-cycle miss.
 */

#ifndef LSIM_CACHE_TLB_HH
#define LSIM_CACHE_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lsim::cache
{

/** TLB geometry and timing. */
struct TlbConfig
{
    std::string name = "tlb";
    unsigned entries = 256;
    unsigned assoc = 4;
    std::uint64_t page_bytes = 8 * 1024;
    Cycle miss_latency = 30;

    /** Throws std::invalid_argument on bad geometry. */
    void validate() const;
};

/** Translation statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/** A translation lookaside buffer. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Translate the page of @p addr. @return 0 on a hit, the miss
     * penalty on a miss (the entry is filled).
     */
    Cycle access(Addr addr);

    /** Drop all translations. */
    void flush();

    const TlbStats &stats() const { return stats_; }
    const TlbConfig &config() const { return config_; }

  private:
    struct Entry
    {
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    TlbConfig config_;
    std::vector<Entry> entries_;
    std::uint64_t lru_clock_ = 0;
    std::uint64_t set_mask_;
    unsigned page_shift_;
    TlbStats stats_;
};

// The access path is defined here so that the core's stages inline
// it.

inline Cycle
Tlb::access(Addr addr)
{
    ++stats_.accesses;
    const Addr vpn = addr >> page_shift_;
    const std::uint64_t set = vpn & set_mask_;
    Entry *base = &entries_[set * config_.assoc];

    Entry *victim = base;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Entry &e = base[way];
        if (e.valid && e.vpn == vpn) {
            e.lru = ++lru_clock_;
            return 0;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lru < victim->lru) {
            victim = &e;
        }
    }

    ++stats_.misses;
    victim->valid = true;
    victim->vpn = vpn;
    victim->lru = ++lru_clock_;
    return config_.miss_latency;
}

} // namespace lsim::cache

#endif // LSIM_CACHE_TLB_HH
