#include "cache/cache.hh"

#include <bit>
#include <stdexcept>
#include <string>

namespace lsim::cache
{

std::uint64_t
CacheConfig::numSets() const
{
    return size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes);
}

void
CacheConfig::validate() const
{
    if (size_bytes == 0 || assoc == 0 || line_bytes == 0)
        throw std::invalid_argument("cache " + name +
                                    ": zero geometry parameter");
    if (!std::has_single_bit(static_cast<std::uint64_t>(line_bytes)))
        throw std::invalid_argument(
            "cache " + name + ": line size " +
            std::to_string(line_bytes) + " not a power of two");
    const std::uint64_t sets = numSets();
    if (sets == 0 || !std::has_single_bit(sets))
        throw std::invalid_argument(
            "cache " + name + ": set count " + std::to_string(sets) +
            " not a nonzero power of two");
}

Cache::Cache(const CacheConfig &config, Cache *next,
             Cycle memory_latency)
    : config_(config), next_(next), memory_latency_(memory_latency)
{
    config_.validate();
    lines_.assign(config_.numSets() * config_.assoc, Line{});
    set_mask_ = config_.numSets() - 1;
    line_shift_ = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(config_.line_bytes)));
}

bool
Cache::probe(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *base = &lines_[set * config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way)
        if (base[way].valid && base[way].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
}

} // namespace lsim::cache
