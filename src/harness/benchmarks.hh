/**
 * @file
 * Suite-level aggregation shared by the bench binaries: the Figure 7
 * idle-distribution helpers over a set of Table 3 simulations, and
 * the Figure 9 per-policy averages (see api::SweepResult::averagesAt).
 */

#ifndef LSIM_HARNESS_BENCHMARKS_HH
#define LSIM_HARNESS_BENCHMARKS_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace lsim::harness
{

/** Results of simulating the whole suite. */
struct SuiteRun
{
    std::vector<WorkloadSim> sims; ///< one per benchmark, paper order

    /** Find a benchmark's sim by name; throws
     * std::invalid_argument if absent. */
    const WorkloadSim &byName(const std::string &name) const;

    /**
     * Suite-combined idle histogram: per-benchmark histograms are
     * already per-FU-fraction weighted; the combination averages
     * them so every benchmark weighs equally (Figure 7 rule).
     */
    stats::Log2Histogram combinedIdleHistogram() const;

    /**
     * Fraction of FU-time idle across the suite (the paper reports
     * 46.8% at a 12-cycle L2).
     */
    double meanIdleFraction() const;
};

/**
 * Average, over a suite, of each policy's energy relative to the
 * NoOverhead policy at one technology point (Figure 9a), and of its
 * leakage-to-total ratio (Figure 9b), in the sweep's policy order.
 */
struct SuitePolicyAverages
{
    std::vector<std::string> names;
    std::vector<double> rel_to_nooverhead;
    std::vector<double> leakage_fraction;
};

} // namespace lsim::harness

#endif // LSIM_HARNESS_BENCHMARKS_HH
