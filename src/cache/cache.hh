/**
 * @file
 * Set-associative, write-back/write-allocate cache with true-LRU
 * replacement and blocking (latency-additive) miss handling, in the
 * SimpleScalar tradition: an access returns the total latency to
 * first use, accumulating each level's hit latency down the
 * hierarchy.
 */

#ifndef LSIM_CACHE_CACHE_HH
#define LSIM_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lsim::cache
{

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t size_bytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned line_bytes = 64;
    Cycle hit_latency = 2;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const;

    /** Validate: power-of-two sets/lines, nonzero sizes. Throws
     * std::invalid_argument on bad geometry. */
    void validate() const;
};

/** Access statistics of one cache level. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/**
 * One cache level. Levels are chained via the next-level pointer;
 * the last level's misses cost the configured memory latency.
 */
class Cache
{
  public:
    /**
     * @param config Geometry/timing.
     * @param next Next level (nullptr = memory is next).
     * @param memory_latency Latency charged when this level misses
     *        and there is no next level.
     */
    Cache(const CacheConfig &config, Cache *next, Cycle memory_latency);

    /**
     * Access @p addr; @return total latency to data (this level's
     * hit latency plus, on a miss, the downstream fill latency).
     * Write misses allocate (fetch-on-write). Dirty evictions access
     * the next level as writebacks (counted, not timed — writeback
     * buffers are assumed, as in SimpleScalar's default).
     */
    Cycle access(Addr addr, bool is_write);

    /** @return true if @p addr currently hits (no state change). */
    bool probe(Addr addr) const;

    /** Invalidate all lines (drops dirty state). */
    void flush();

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0; ///< higher = more recently used
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheConfig config_;
    Cache *next_;
    Cycle memory_latency_;
    std::vector<Line> lines_; ///< sets * assoc, row-major by set
    std::uint64_t lru_clock_ = 0;
    CacheStats stats_;

    std::uint64_t set_mask_;
    unsigned line_shift_;
};

// The access path is defined here so that the core's stages inline
// it.

inline std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> line_shift_) & set_mask_;
}

inline Addr
Cache::tagOf(Addr addr) const
{
    return addr >> line_shift_;
}

inline Cycle
Cache::access(Addr addr, bool is_write)
{
    ++stats_.accesses;
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.assoc];

    Line *victim = base;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lru = ++lru_clock_;
            line.dirty = line.dirty || is_write;
            return config_.hit_latency;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lru < victim->lru) {
            victim = &line;
        }
    }

    // Miss: fill from downstream (write-allocate).
    ++stats_.misses;
    Cycle fill = memory_latency_;
    if (next_)
        fill = next_->access(addr, false);

    if (victim->valid && victim->dirty) {
        ++stats_.writebacks;
        if (next_) {
            // Writebacks occupy the next level (affecting its
            // contents) but are buffered, so they add no latency to
            // the demand fill.
            const Addr victim_addr =
                victim->tag << line_shift_;
            (void)next_->access(victim_addr, true);
        }
    }

    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lru = ++lru_clock_;
    return config_.hit_latency + fill;
}

} // namespace lsim::cache

#endif // LSIM_CACHE_CACHE_HH
