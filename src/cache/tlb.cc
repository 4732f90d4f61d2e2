#include "cache/tlb.hh"

#include <bit>
#include <stdexcept>
#include <string>

namespace lsim::cache
{

void
TlbConfig::validate() const
{
    if (entries == 0 || assoc == 0 || entries % assoc != 0)
        throw std::invalid_argument(
            "tlb " + name + ": entries (" + std::to_string(entries) +
            ") must be a multiple of assoc (" +
            std::to_string(assoc) + ")");
    if (!std::has_single_bit(
            static_cast<std::uint64_t>(entries / assoc)))
        throw std::invalid_argument(
            "tlb " + name + ": set count not a power of two");
    if (!std::has_single_bit(page_bytes))
        throw std::invalid_argument(
            "tlb " + name + ": page size not a power of two");
}

Tlb::Tlb(const TlbConfig &config)
    : config_(config)
{
    config_.validate();
    entries_.assign(config_.entries, Entry{});
    set_mask_ = config_.entries / config_.assoc - 1;
    page_shift_ = static_cast<unsigned>(std::countr_zero(config_.page_bytes));
}

void
Tlb::flush()
{
    for (auto &e : entries_)
        e = Entry{};
}

} // namespace lsim::cache
