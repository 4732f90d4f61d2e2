#include "cache/hierarchy.hh"

namespace lsim::cache
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config)
    : config_(config)
{
    l2_ = std::make_unique<Cache>(config_.l2, nullptr,
                                  config_.memory_latency);
    l1i_ = std::make_unique<Cache>(config_.l1i, l2_.get(), 0);
    l1d_ = std::make_unique<Cache>(config_.l1d, l2_.get(), 0);
    itlb_ = std::make_unique<Tlb>(config_.itlb);
    dtlb_ = std::make_unique<Tlb>(config_.dtlb);
}

void
MemoryHierarchy::flushAll()
{
    l1i_->flush();
    l1d_->flush();
    l2_->flush();
    itlb_->flush();
    dtlb_->flush();
}

} // namespace lsim::cache
