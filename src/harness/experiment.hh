/**
 * @file
 * Experiment harness: runs workload profiles through the O3 core,
 * captures the sufficient statistics for energy evaluation (the
 * per-FU idle-interval structure), and evaluates sleep policies at
 * arbitrary technology points without re-simulating.
 *
 * The key observation enabling fast technology sweeps: all paper
 * policies account each idle interval independently of history, so
 * the exact multiset of idle-interval lengths (plus total active
 * cycles) fully determines every policy's CycleCounts. One timing
 * simulation therefore supports the whole Figure 9 p-sweep.
 *
 * NOTE: new code should prefer the api:: facade (api/experiment.hh,
 * api/sweep.hh), which wraps these functions behind a builder,
 * string-keyed policies and a parallel sweep runner. The free
 * functions below remain as the facade's engine and as deprecated
 * shims for existing callers.
 */

#ifndef LSIM_HARNESS_EXPERIMENT_HH
#define LSIM_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "cpu/config.hh"
#include "cpu/core.hh"
#include "energy/params.hh"
#include "sleep/accumulator.hh"
#include "sleep/controllers.hh"
#include "trace/profile.hh"

namespace lsim::harness
{

/**
 * Exact idle-interval multiset of one run (aggregated over the
 * integer FUs), the sufficient statistic for history-free policy
 * evaluation.
 */
struct IdleProfile
{
    /** idle interval length -> number of such intervals. */
    std::map<Cycle, std::uint64_t> intervals;
    Cycle active_cycles = 0;
    Cycle idle_cycles = 0;
    unsigned num_fus = 0;

    /** Total cycles summed over FUs. */
    Cycle totalCycles() const { return active_cycles + idle_cycles; }

    /** Fraction of FU-cycles spent idle. */
    double idleFraction() const;

    /** Mean idle interval length. */
    double meanInterval() const;

    /** Number of idle intervals. */
    std::uint64_t numIntervals() const;

    /** Record one maximal run (the FuPool sink feeds this). */
    void addRun(bool busy, Cycle len);

    /** Replay into a controller (order-free; uses idleRuns). */
    void replayTo(sleep::SleepController &ctrl) const;
};

/** One benchmark simulated at one FU count. */
struct WorkloadSim
{
    std::string name;          ///< benchmark name
    unsigned num_fus = 0;      ///< integer FU count simulated
    cpu::SimResult sim;        ///< timing results
    IdleProfile idle;          ///< aggregated idle structure
    /**
     * Per-FU idle-time histograms merged as fractions of each FU's
     * total time (Figure 7's equal-weight combination rule).
     */
    stats::Log2Histogram idle_hist{8192};
};

/**
 * Simulate @p profile for @p insts committed instructions on a core
 * with @p num_fus integer units. Every O3 run of this module, the
 * selection runs of selectFuCount included, adds to the
 * `sim.core_runs` and `sim.insts` counters.
 *
 * @param base Base machine configuration (FU count is overridden).
 * @param seed Trace generator seed.
 */
WorkloadSim simulateWorkload(const trace::WorkloadProfile &profile,
                             unsigned num_fus, std::uint64_t insts,
                             const cpu::CoreConfig &base = {},
                             std::uint64_t seed = 1);

/** Table 3 FU-count selection result. */
struct FuSelection
{
    unsigned chosen = 4;        ///< min FUs with >= 95% of 4-FU IPC
    double max_ipc = 0.0;       ///< IPC with 4 FUs
    double chosen_ipc = 0.0;    ///< IPC with the chosen count
    double ipc_by_fus[4] = {};  ///< IPC at 1..4 FUs
};

/**
 * The paper's FU-count rule over IPCs measured at 1..4 integer FUs:
 * the minimum count achieving at least @p threshold (default 95%) of
 * the 4-FU IPC. The one definition behind selectFuCount, the
 * facade's auto_select sessions and the batch runner's pooled
 * selection.
 */
FuSelection chooseFuCount(const double (&ipc_by_fus)[4],
                          double threshold = 0.95);

/**
 * The paper's FU-count methodology: simulate at 1..4 integer FUs and
 * apply chooseFuCount.
 */
FuSelection selectFuCount(const trace::WorkloadProfile &profile,
                          std::uint64_t insts,
                          const cpu::CoreConfig &base = {},
                          double threshold = 0.95,
                          std::uint64_t seed = 1);

/**
 * Evaluate a controller set against a stored IdleProfile at
 * technology point @p params; results are normalized per the
 * evaluator's E_base convention (Figure 8/9 axes).
 *
 * @deprecated Prefer api::evaluateProfile (registry-named policies)
 * or api::Session::evaluate; this remains as their engine.
 */
std::vector<sleep::PolicyResult>
evaluatePolicies(const IdleProfile &idle,
                 const energy::ModelParams &params,
                 sleep::ControllerSet controllers);

/**
 * Convenience: evaluate the paper's four policies.
 *
 * @deprecated Thin shim over evaluatePolicies +
 * sleep::makePaperControllers; prefer api::Session::evaluate, which
 * defaults to the same four policies.
 */
std::vector<sleep::PolicyResult>
evaluatePaperPolicies(const IdleProfile &idle,
                      const energy::ModelParams &params);

} // namespace lsim::harness

#endif // LSIM_HARNESS_EXPERIMENT_HH
