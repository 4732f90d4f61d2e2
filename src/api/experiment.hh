/**
 * @file
 * Unified experiment facade: one fluent entry point for the paper's
 * simulate-then-evaluate flow.
 *
 * @code
 *   auto result = api::Experiment::builder()
 *                     .workload("gcc")
 *                     .insts(1'000'000)
 *                     .fus(api::auto_select)
 *                     .technology(0.05, 0.5)
 *                     .policies({"max-sleep", "gradual"})
 *                     .run();
 *   result.writeJson(std::cout);
 * @endcode
 *
 * The expensive step — the timing simulation — is factored into a
 * Session: build one with .session(), then evaluate() it at any
 * number of technology points; each evaluation replays the cached
 * IdleProfile sufficient statistic instead of re-simulating (the
 * paper's Figure 9 trick). SweepRunner (api/sweep.hh) parallelizes
 * this across workload x technology grids.
 *
 * Policies are named by sleep::PolicyRegistry specs ("max-sleep",
 * "gradual", "timeout:64", ...). Configuration errors (unknown
 * workload or policy, malformed spec) throw std::invalid_argument at
 * run()/session() time.
 */

#ifndef LSIM_API_EXPERIMENT_HH
#define LSIM_API_EXPERIMENT_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/config.hh"
#include "energy/params.hh"
#include "harness/experiment.hh"
#include "sleep/accumulator.hh"
#include "trace/profile.hh"

namespace lsim
{
class CsvWriter;
}

namespace lsim::api
{

/**
 * Sentinel FU count for ExperimentBuilder::fus(): derive the count
 * with the paper's Table 3 methodology (min FUs within 95% of the
 * 4-FU IPC) instead of fixing it.
 */
inline constexpr unsigned auto_select = 0;

/**
 * The paper's analysis technology point: leakage factor @p p,
 * activity @p alpha, and the Section 3.1 defaults k = 0.001,
 * s = 0.01 — the single definition behind every facade default.
 */
energy::ModelParams analysisPoint(double p, double alpha = 0.5);

/**
 * Technology point derived from the default circuit-level FU model
 * (500 OR8 domino gates): p, k, s and E_D computed from the circuit
 * characterization, activity @p alpha and duty @p duty passed
 * through — the facade's bridge from the circuit layer to the
 * analytical model (used by the Figure 3/4a reproductions).
 */
energy::ModelParams circuitPoint(double alpha = 0.5,
                                 double duty = 0.5);

/** One experiment outcome: a simulation evaluated at one technology
 * point under a set of policies. */
struct RunResult
{
    harness::WorkloadSim sim;          ///< timing + idle statistics
    energy::ModelParams technology;    ///< evaluation point
    std::vector<std::string> policy_keys; ///< registry specs used
    std::vector<sleep::PolicyResult> policies; ///< same order as keys

    /** Set when the FU count was auto-selected. */
    std::optional<harness::FuSelection> fu_selection;

    /**
     * Result of the policy named @p name (either the registry spec
     * or the controller's report name); throws std::invalid_argument
     * if absent.
     */
    const sleep::PolicyResult &policy(const std::string &name) const;

    /**
     * Serialize as one JSON object: {technology, simulation,
     * policies}, the simulation and policies in the
     * harness::writeSimJson / writePoliciesJson schema that
     * SweepResult::toJson shares.
     */
    std::string toJson() const;

    /**
     * Serialize the policy results as CSV rows
     * (benchmark,policy_key,policy,p,alpha,k,s,energy,
     *  relative_to_base,leakage_fraction) with a header row.
     */
    std::string toCsv() const;

    /** toJson() / toCsv() written to @p os. */
    void writeJson(std::ostream &os) const;
    void writeCsv(std::ostream &os) const;
};

/**
 * A completed timing simulation, reusable across technology points.
 * Obtained from ExperimentBuilder::session(); evaluate() replays the
 * stored IdleProfile, so evaluating N technology points costs one
 * simulation plus N cheap replays.
 */
class Session
{
  public:
    /** Evaluate the cached profile at @p params. */
    RunResult evaluate(const energy::ModelParams &params) const;

    /**
     * Evaluate at leakage factor @p p, activity @p alpha, and the
     * paper's analysis defaults k = 0.001, s = 0.01.
     */
    RunResult evaluate(double p, double alpha = 0.5) const;

    /**
     * Like evaluate() but returns only the policy results — no
     * WorkloadSim copy, for callers sweeping many technology
     * points that don't need per-point simulation records.
     */
    std::vector<sleep::PolicyResult>
    policiesAt(const energy::ModelParams &params) const;

    /**
     * Evaluate every point in @p points with a single pass over the
     * cached idle-interval multiset (the replay::MultiPointReplay
     * fast path). Results[t] is bit-identical to policiesAt(
     * points[t]) evaluated alone.
     */
    std::vector<std::vector<sleep::PolicyResult>>
    policiesAt(const std::vector<energy::ModelParams> &points) const;

    /** The underlying simulation. */
    const harness::WorkloadSim &sim() const { return sim_; }

    /** Registry specs evaluated by evaluate(). */
    const std::vector<std::string> &policyKeys() const
    {
        return policy_keys_;
    }

    /** FU-count selection detail when fus(auto_select) was used. */
    const std::optional<harness::FuSelection> &fuSelection() const
    {
        return fu_selection_;
    }

  private:
    friend class ExperimentBuilder;
    Session() = default;

    harness::WorkloadSim sim_;
    std::vector<std::string> policy_keys_;
    std::optional<harness::FuSelection> fu_selection_;
};

/**
 * Fluent configuration of one experiment. All setters return *this;
 * unset knobs take the paper's defaults (500k instructions, seed 1,
 * the profile's Table 3 FU count, technology p = 0.05 / alpha = 0.5 /
 * k = 0.001 / s = 0.01, and the paper's four policies).
 */
class ExperimentBuilder
{
  public:
    /** Select a Table 3 benchmark by name (throws if unknown). */
    ExperimentBuilder &workload(const std::string &name);

    /** Use a custom workload profile instead of a Table 3 entry. */
    ExperimentBuilder &profile(trace::WorkloadProfile custom);

    /** Committed instructions to simulate. */
    ExperimentBuilder &insts(std::uint64_t n);

    /**
     * Integer FU count; api::auto_select derives it with the Table 3
     * methodology (simulates at 1..4 FUs and keeps the chosen run).
     */
    ExperimentBuilder &fus(unsigned n);

    /** Trace generator seed. */
    ExperimentBuilder &seed(std::uint64_t s);

    /** Base machine configuration (FU count still applies on top). */
    ExperimentBuilder &config(const cpu::CoreConfig &base);

    /** Technology point: leakage factor p and activity alpha, with
     * the paper's analysis defaults k = 0.001, s = 0.01. */
    ExperimentBuilder &technology(double p, double alpha = 0.5);

    /** Fully explicit technology point. */
    ExperimentBuilder &technology(const energy::ModelParams &params);

    /** Policies to evaluate, as PolicyRegistry specs. */
    ExperimentBuilder &policies(std::vector<std::string> keys);

    /** The paper's four policies (the default). */
    ExperimentBuilder &paperPolicies();

    /**
     * Run the timing simulation once and return a Session for
     * evaluation at arbitrary technology points.
     */
    Session session() const;

    /** session() + evaluate() at the configured technology point. */
    RunResult run() const;

  private:
    friend struct Experiment;
    ExperimentBuilder() = default;

    const trace::WorkloadProfile &resolveProfile() const;

    std::optional<trace::WorkloadProfile> profile_;
    std::string workload_;
    std::uint64_t insts_ = 500'000;
    std::uint64_t seed_ = 1;
    unsigned fus_ = paper_fus; ///< see sentinel below
    cpu::CoreConfig base_;
    energy::ModelParams technology_;
    std::vector<std::string> policy_keys_;

    /** Internal sentinel: use the profile's Table 3 FU count. */
    static constexpr unsigned paper_fus = ~0u;
};

/** Entry point: api::Experiment::builder()...run(). */
struct Experiment
{
    static ExperimentBuilder builder() { return {}; }
};

/**
 * Evaluate a stored idle profile at @p params under registry-named
 * policies: one sleep::PolicyEvaluator fed the active total, then
 * the interval multiset in ascending length order. An empty
 * @p policy_keys means the paper's four policies.
 *
 * This is the *scalar* reference path: one walk over the interval
 * multiset per call. Session and SweepRunner route their replays
 * through replay::MultiPointReplay instead, which is bit-identical
 * (see that header's contract) but amortizes one pass across all
 * technology points; this function remains the ground truth the
 * engine is tested and benchmarked against.
 */
std::vector<sleep::PolicyResult>
evaluateProfile(const harness::IdleProfile &idle,
                const energy::ModelParams &params,
                const std::vector<std::string> &policy_keys = {});

namespace detail
{

/**
 * Shared CSV schema for policy rows — RunResult::toCsv and
 * SweepResult::toCsv both emit it, so the column set has one
 * definition.
 */
void writePolicyCsvHeader(CsvWriter &csv);
void writePolicyCsvRows(CsvWriter &csv, std::string_view benchmark,
                        const std::vector<std::string> &policy_keys,
                        const std::vector<sleep::PolicyResult> &policies,
                        const energy::ModelParams &params);

} // namespace detail

} // namespace lsim::api

#endif // LSIM_API_EXPERIMENT_HH
