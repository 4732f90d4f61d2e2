#include "cpu/config.hh"

#include <bit>
#include <stdexcept>
#include <string>

namespace lsim::cpu
{

namespace
{
[[noreturn]] void
reject(const std::string &what)
{
    throw std::invalid_argument("CoreConfig: " + what);
}

void
requirePow2(unsigned value, const char *what)
{
    if (value == 0 || !std::has_single_bit(value))
        reject(std::string(what) + " (" + std::to_string(value) +
               ") must be a nonzero power of two");
}
} // namespace

void
BpredConfig::validate() const
{
    requirePow2(bimodal_entries, "bimodal entries");
    requirePow2(gshare_entries, "gshare entries");
    requirePow2(chooser_entries, "chooser entries");
    requirePow2(btb_sets, "BTB sets");
    if (hist_bits == 0 || hist_bits > 20)
        reject("history bits " + std::to_string(hist_bits) +
               " outside [1,20]");
    if (ras_entries == 0)
        reject("RAS must have at least one entry");
    if (btb_assoc == 0)
        reject("BTB associativity must be nonzero");
}

void
CoreConfig::validate() const
{
    if (fetch_width == 0 || decode_width == 0 || issue_width == 0 ||
        commit_width == 0)
        reject("zero pipeline width");
    if (fetch_queue_entries == 0 || rob_entries == 0 ||
        int_iq_entries == 0 || fp_iq_entries == 0)
        reject("zero queue capacity");
    if (int_phys_regs <= 32 || fp_phys_regs <= 32)
        reject("need more than 32 physical registers per file "
               "(32 hold the architectural state)");
    if (num_int_fus == 0 || num_int_fus > 8)
        reject("integer FU count " + std::to_string(num_int_fus) +
               " outside [1,8]");
    if (num_fp_fus == 0)
        reject("need at least one FP unit");
    if (dcache_ports == 0)
        reject("need at least one D-cache port");
    bpred.validate();
}

CoreConfig
CoreConfig::withIntFus(unsigned n) const
{
    CoreConfig copy = *this;
    copy.num_int_fus = n;
    return copy;
}

CoreConfig
CoreConfig::withL2Latency(Cycle lat) const
{
    CoreConfig copy = *this;
    copy.mem.l2.hit_latency = lat;
    return copy;
}

} // namespace lsim::cpu
