/**
 * @file
 * Workload profiles: parameterized synthetic stand-ins for the
 * paper's Table 3 benchmarks (SPEC95/SPEC2K INT and Olden).
 *
 * We cannot ship or run the original binaries, so each benchmark is
 * described by the levers that determine functional-unit idleness in
 * an out-of-order core: instruction mix, dependency structure (ILP),
 * control-flow predictability, and instruction/data memory locality.
 * The generator (generator.hh) expands a profile into a synthetic
 * program (basic-block graph with per-site branch bias and per-site
 * memory access patterns) and produces a pre-executed dynamic trace.
 *
 * Profiles are tuned so the simulated 4-FU IPC lands near the
 * paper's "Max IPC" column and the benchmark's qualitative character
 * (mcf/health memory-bound, vortex/gzip ILP-rich, ...) is preserved.
 */

#ifndef LSIM_TRACE_PROFILE_HH
#define LSIM_TRACE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lsim::trace
{

/**
 * Largest static program a profile may describe, in instructions
 * (num_blocks / frac_branch): 2^22, 84 times gcc's. The generator
 * builds the whole program before the first cycle.
 */
inline constexpr std::uint64_t kMaxStaticInsts = std::uint64_t{1} << 22;

/** Tunable description of one synthetic benchmark. */
struct WorkloadProfile
{
    std::string name;   ///< benchmark name (Table 3 column 1)
    std::string suite;  ///< originating suite (Table 3 column 2)

    /**
     * @name Instruction mix
     * Fractions of the dynamic stream; the remainder after all
     * listed classes is IntAlu. Branches are additionally split into
     * plain branches and call/return pairs by the generator.
     * @{
     */
    double frac_load = 0.25;
    double frac_store = 0.10;
    double frac_branch = 0.15;
    double frac_mult = 0.01;
    double frac_fp = 0.00;
    /** @} */

    /**
     * @name Dependency structure
     * Each source operand is, with probability dep_density, the
     * result of a recent earlier instruction at geometric distance
     * (parameter dep_distance_p; larger means closer producers and
     * hence less ILP). Otherwise it reads a long-lived value.
     * @{
     */
    double dep_density = 0.7;
    double dep_distance_p = 0.3;
    /** @} */

    /**
     * @name Control flow
     * num_blocks sets the static instruction footprint (I-cache
     * behavior); block body lengths are geometric with mean
     * (1 - frac_branch) / frac_branch so the dynamic branch fraction
     * matches the mix. A branch site is "strongly biased" with probability
     * branch_bias_strong (taken prob 0.97 or 0.03 chosen per site);
     * otherwise the site is noisy with per-execution taken
     * probability noisy_taken_prob. call_fraction of blocks end in a
     * call to a function block (exercising the RAS).
     * @{
     */
    unsigned num_blocks = 1200;
    double branch_bias_strong = 0.85;
    double noisy_taken_prob = 0.45;
    double call_fraction = 0.04;
    /** @} */

    /**
     * @name Memory behavior
     * Load/store sites fall into four categories:
     *  - local (local_frac): stack/locals; tiny shared region,
     *    effectively always L1-resident;
     *  - streaming (stream_frac): line-stride sweeps over a large
     *    slice of the working set — miss L1 on every line, hit L2
     *    while the slice fits;
     *  - irregular (irregular_frac): uniformly random within
     *    working_set (pointer-chasing); L1/L2 behavior follows the
     *    footprint size;
     *  - the remainder: small-stride sweeps of small regions that
     *    stay cache-resident after warmup.
     * The aggregate L1D miss rate is approximately stream_frac +
     * irregular_frac * P(footprint escape), giving direct control
     * over each benchmark's memory character.
     * @{
     */
    Addr working_set = 1u << 20;  ///< total data footprint, bytes
    double local_frac = 0.55;
    double stream_frac = 0.03;
    double irregular_frac = 0.05;
    /** @} */

    /** Taken-probability of strongly biased branch sites. */
    double strong_taken_bias = 0.97;

    /**
     * Mean iteration count of each loop nest. The program is a
     * sequence of loop nests (1-8 blocks each) executed repeatedly;
     * higher values concentrate execution in loops (predictable,
     * I-cache friendly), lower values make control flow call/branch
     * dominated.
     */
    double mean_loop_iters = 25.0;

    /**
     * @name Table 3 metadata (paper-reported, for harness output)
     * @{
     */
    double paper_max_ipc = 0.0; ///< IPC with 4 integer FUs
    double paper_ipc = 0.0;     ///< IPC with the chosen FU count
    unsigned paper_fus = 4;     ///< paper's chosen integer FU count
    std::string window;         ///< paper's simulation window
    /** @} */

    /**
     * Check parameter sanity. @return the empty string when the
     * profile is valid, otherwise one message naming the offending
     * field and its value (e.g. "frac_load 1.2 outside [0,1]").
     * Non-finite values (NaN/inf, possible in untrusted JSON-loaded
     * profiles) are rejected explicitly.
     */
    std::string validationError() const;

    /** Throws std::invalid_argument (with validationError()'s
     * message) when the profile is invalid. */
    void validate() const;
};

/** @return the nine Table 3 benchmark profiles, in paper order
 * (gcc, gzip, health, mcf, mst, parser, twolf, vortex, vpr ordered
 * as the paper's table: health, mst, gcc, gzip, mcf, parser, twolf,
 * vortex, vpr). */
const std::vector<WorkloadProfile> &table3Profiles();

/** @return profile by name; throws std::invalid_argument if
 * unknown. */
const WorkloadProfile &profileByName(const std::string &name);

} // namespace lsim::trace

#endif // LSIM_TRACE_PROFILE_HH
