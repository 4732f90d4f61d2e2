/**
 * @file
 * Core configuration: the paper's Table 2 Alpha-21264-like machine.
 */

#ifndef LSIM_CPU_CONFIG_HH
#define LSIM_CPU_CONFIG_HH

#include <string>

#include "cache/hierarchy.hh"
#include "common/types.hh"

namespace lsim::cpu
{

/** Branch predictor geometry (Table 2). */
struct BpredConfig
{
    unsigned bimodal_entries = 2048;  ///< bimodal 2-bit counters
    unsigned hist_bits = 10;          ///< global history length
    unsigned gshare_entries = 4096;   ///< gshare PHT (global)
    unsigned chooser_entries = 1024;  ///< combining chooser counters
    unsigned ras_entries = 32;        ///< return address stack
    unsigned btb_sets = 4096;         ///< BTB sets
    unsigned btb_assoc = 2;           ///< BTB associativity

    /** @throws std::invalid_argument naming the bad parameter. */
    void validate() const;
};

/** Whole-core configuration (Table 2 defaults). */
struct CoreConfig
{
    unsigned fetch_width = 4;
    unsigned decode_width = 4;
    unsigned issue_width = 4;     ///< integer issue per cycle
    unsigned fp_issue_width = 2;  ///< floating point issue per cycle
    unsigned commit_width = 4;

    unsigned fetch_queue_entries = 8;
    unsigned rob_entries = 128;
    unsigned int_iq_entries = 32;
    unsigned fp_iq_entries = 32;
    unsigned int_phys_regs = 96;
    unsigned fp_phys_regs = 96;
    unsigned load_queue_entries = 32;
    unsigned store_queue_entries = 32;

    /**
     * Number of integer functional units (the paper studies 1..4;
     * per-benchmark counts are chosen for >= 95% of 4-FU IPC).
     */
    unsigned num_int_fus = 4;
    unsigned num_fp_fus = 2;
    unsigned dcache_ports = 2;

    Cycle mispredict_penalty = 10; ///< branch mispredict latency
    Cycle btb_miss_penalty = 2;    ///< taken-predict without target

    BpredConfig bpred;
    cache::HierarchyConfig mem;

    /**
     * Check the core parameters and the predictor's (the caches
     * check their own when built).
     * @throws std::invalid_argument naming the bad parameter.
     */
    void validate() const;

    /** @return a copy with @p n integer functional units. */
    CoreConfig withIntFus(unsigned n) const;

    /** @return a copy with the L2 hit latency set to @p lat. */
    CoreConfig withL2Latency(Cycle lat) const;
};

} // namespace lsim::cpu

#endif // LSIM_CPU_CONFIG_HH
