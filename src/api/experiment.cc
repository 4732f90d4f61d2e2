#include "api/experiment.hh"

#include <ostream>
#include <stdexcept>

#include "circuit/fu_circuit.hh"
#include "common/csv.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "harness/report.hh"
#include "replay/engine.hh"
#include "sleep/policy_registry.hh"

namespace lsim::api
{

energy::ModelParams
analysisPoint(double p, double alpha)
{
    energy::ModelParams mp;
    mp.p = p;
    mp.alpha = alpha;
    mp.k = 0.001;
    mp.s = 0.01;
    return mp;
}

energy::ModelParams
circuitPoint(double alpha, double duty)
{
    const circuit::FunctionalUnitCircuit fu{circuit::Technology{}};
    return energy::ModelParams::fromCircuit(fu, alpha, duty);
}

void
detail::writePolicyCsvHeader(CsvWriter &csv)
{
    csv.writeRow({"benchmark", "policy_key", "policy", "p", "alpha",
                  "k", "s", "energy", "relative_to_base",
                  "leakage_fraction"});
}

void
detail::writePolicyCsvRows(
    CsvWriter &csv, std::string_view benchmark,
    const std::vector<std::string> &policy_keys,
    const std::vector<sleep::PolicyResult> &policies,
    const energy::ModelParams &params)
{
    // Every row of a cell repeats its point's p,alpha,k,s cells.
    std::string point;
    for (const double v : {params.p, params.alpha, params.k, params.s}) {
        if (!point.empty())
            point += ',';
        appendNumber(point, v);
    }
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const auto &r = policies[i];
        csv.cell(benchmark);
        csv.cell(i < policy_keys.size() ? std::string_view(policy_keys[i])
                                        : std::string_view());
        csv.cell(r.name);
        csv.cells(point);
        csv.cell(r.energy);
        csv.cell(r.relative_to_base);
        csv.cell(r.leakage_fraction);
        csv.endRow();
    }
}

const sleep::PolicyResult &
RunResult::policy(const std::string &name) const
{
    for (std::size_t i = 0; i < policies.size(); ++i) {
        if (policies[i].name == name ||
            (i < policy_keys.size() && policy_keys[i] == name))
            return policies[i];
    }
    throw std::invalid_argument("no policy '" + name +
                                "' in this result");
}

std::string
RunResult::toJson() const
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    harness::writeTechnologyJson(w, technology);
    harness::writeSimJson(w, sim);
    harness::writePoliciesJson(w, policies);
    w.endObject();
    out += '\n';
    return out;
}

std::string
RunResult::toCsv() const
{
    std::string out;
    CsvWriter csv(out);
    detail::writePolicyCsvHeader(csv);
    detail::writePolicyCsvRows(csv, sim.name, policy_keys, policies,
                               technology);
    return out;
}

void
RunResult::writeJson(std::ostream &os) const
{
    os << toJson();
}

void
RunResult::writeCsv(std::ostream &os) const
{
    os << toCsv();
}

std::vector<sleep::PolicyResult>
evaluateProfile(const harness::IdleProfile &idle,
                const energy::ModelParams &params,
                const std::vector<std::string> &policy_keys)
{
    const auto &keys = policy_keys.empty()
        ? sleep::PolicyRegistry::paperSpecs()
        : policy_keys;
    sleep::PolicyEvaluator eval(
        params, sleep::PolicyRegistry::instance().makeSet(keys, params));
    // The engine's equivalence contract replays exactly this order:
    // the active total first, then each interval length ascending.
    eval.feedRun(true, idle.active_cycles);
    for (const auto &[len, count] : idle.intervals)
        eval.feedRuns(len, count);
    return eval.results();
}

RunResult
Session::evaluate(const energy::ModelParams &params) const
{
    RunResult result;
    result.sim = sim_;
    result.technology = params;
    result.policy_keys = policy_keys_;
    result.policies = policiesAt(params);
    result.fu_selection = fu_selection_;
    return result;
}

RunResult
Session::evaluate(double p, double alpha) const
{
    return evaluate(analysisPoint(p, alpha));
}

std::vector<sleep::PolicyResult>
Session::policiesAt(const energy::ModelParams &params) const
{
    // Single-point replay still goes through the engine so every
    // facade evaluation exercises the same code path; it performs
    // the scalar call sequence exactly.
    return replay::replayProfile(sim_.idle, {params},
                                 policy_keys_)
        .front();
}

std::vector<std::vector<sleep::PolicyResult>>
Session::policiesAt(const std::vector<energy::ModelParams> &points)
    const
{
    return replay::replayProfile(sim_.idle, points, policy_keys_);
}

ExperimentBuilder &
ExperimentBuilder::workload(const std::string &name)
{
    workload_ = name;
    profile_.reset();
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::profile(trace::WorkloadProfile custom)
{
    profile_ = std::move(custom);
    workload_.clear();
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::insts(std::uint64_t n)
{
    insts_ = n;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::fus(unsigned n)
{
    fus_ = n;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::seed(std::uint64_t s)
{
    seed_ = s;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::config(const cpu::CoreConfig &base)
{
    base_ = base;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::technology(double p, double alpha)
{
    technology_ = analysisPoint(p, alpha);
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::technology(const energy::ModelParams &params)
{
    technology_ = params;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::policies(std::vector<std::string> keys)
{
    policy_keys_ = std::move(keys);
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::paperPolicies()
{
    policy_keys_.clear();
    return *this;
}

const trace::WorkloadProfile &
ExperimentBuilder::resolveProfile() const
{
    if (profile_)
        return *profile_;
    if (workload_.empty())
        throw std::invalid_argument(
            "ExperimentBuilder: set a workload() or profile() first");
    for (const auto &p : trace::table3Profiles())
        if (p.name == workload_)
            return p;
    std::string known;
    for (const auto &p : trace::table3Profiles())
        known += (known.empty() ? "" : ", ") + p.name;
    throw std::invalid_argument("unknown workload '" + workload_ +
                                "' (known: " + known + ")");
}

Session
ExperimentBuilder::session() const
{
    const auto &prof = resolveProfile();

    // Validate policy specs before paying for the simulation.
    const auto &keys = policy_keys_.empty()
        ? sleep::PolicyRegistry::paperSpecs()
        : policy_keys_;
    sleep::PolicyRegistry::instance().makeSet(keys, technology_);

    Session s;
    s.policy_keys_ = keys;

    if (fus_ == auto_select) {
        // Full runs at 1..4 FUs; the chosen count's run is the
        // session's simulation, so nothing is simulated twice.
        harness::WorkloadSim runs[4];
        double ipc_by_fus[4];
        for (unsigned n = 1; n <= 4; ++n) {
            runs[n - 1] = harness::simulateWorkload(prof, n, insts_,
                                                    base_, seed_);
            ipc_by_fus[n - 1] = runs[n - 1].sim.ipc;
        }
        s.fu_selection_ = harness::chooseFuCount(ipc_by_fus);
        s.sim_ = std::move(runs[s.fu_selection_->chosen - 1]);
        return s;
    }

    const unsigned fu_count = fus_ == paper_fus ? prof.paper_fus : fus_;
    s.sim_ = harness::simulateWorkload(prof, fu_count, insts_, base_,
                                       seed_);
    return s;
}

RunResult
ExperimentBuilder::run() const
{
    return session().evaluate(technology_);
}

} // namespace lsim::api
