#include "sleep/accumulator.hh"

#include "common/logging.hh"
#include "sleep/policy_registry.hh"

namespace lsim::sleep
{

void
RunLengthTrace::append(bool busy, Cycle len)
{
    if (len == 0)
        return;
    if (!runs.empty() && runs.back().busy == busy)
        runs.back().len += len;
    else
        runs.push_back({busy, len});
}

Cycle
RunLengthTrace::totalCycles() const
{
    Cycle total = 0;
    for (const auto &run : runs)
        total += run.len;
    return total;
}

Cycle
RunLengthTrace::busyCycles() const
{
    Cycle total = 0;
    for (const auto &run : runs)
        if (run.busy)
            total += run.len;
    return total;
}

RunLengthTrace
RunLengthTrace::fromBits(const std::vector<bool> &bits)
{
    RunLengthTrace trace;
    for (bool bit : bits)
        trace.append(bit, 1);
    return trace;
}

PolicyEvaluator::PolicyEvaluator(const energy::ModelParams &params,
                                 ControllerSet controllers)
    : model_(params), controllers_(std::move(controllers))
{
    if (controllers_.empty())
        fatal("PolicyEvaluator: no controllers registered");
}

PolicyEvaluator
PolicyEvaluator::paperPolicies(const energy::ModelParams &params)
{
    return PolicyEvaluator(
        params, PolicyRegistry::instance().makeSet(
                    PolicyRegistry::paperSpecs(), params));
}

void
PolicyEvaluator::feedRun(bool busy, Cycle len)
{
    if (len == 0)
        return;
    total_ += len;
    if (busy) {
        idle_.activeRun(len);
        for (auto &ctrl : controllers_)
            ctrl->activeRun(len);
    } else {
        // Each feedRun(false, len) is a complete, maximal interval
        // (the FuPool sink emits maximal runs); close it in the
        // recorder so interval counting matches the controllers.
        idle_.idleRuns(len, 1);
        for (auto &ctrl : controllers_)
            ctrl->idleRun(len);
    }
}

void
PolicyEvaluator::feedRuns(Cycle idle_len, std::uint64_t count)
{
    if (idle_len == 0 || count == 0)
        return;
    total_ += idle_len * count;
    idle_.idleRuns(idle_len, count);
    for (auto &ctrl : controllers_)
        ctrl->idleRuns(idle_len, count);
}

void
PolicyEvaluator::feedTrace(const RunLengthTrace &trace)
{
    for (const auto &run : trace.runs)
        feedRun(run.busy, run.len);
}

double
PolicyEvaluator::baseEnergy() const
{
    return model_.activeCycleEnergy() * static_cast<double>(total_);
}

std::vector<PolicyResult>
PolicyEvaluator::results() const
{
    std::vector<PolicyResult> out;
    out.reserve(controllers_.size());
    const double base = baseEnergy();
    for (const auto &ctrl : controllers_) {
        PolicyResult r;
        r.name = ctrl->name();
        r.counts = ctrl->counts();
        r.breakdown = model_.breakdown(r.counts);
        r.energy = r.breakdown.total();
        r.relative_to_base = base > 0.0 ? r.energy / base : 0.0;
        r.leakage_fraction = r.breakdown.leakageFraction();
        out.push_back(std::move(r));
    }
    return out;
}

PolicyResult
PolicyEvaluator::resultFor(const std::string &name) const
{
    for (const auto &r : results())
        if (r.name == name)
            return r;
    fatal("PolicyEvaluator: no controller named '%s'", name.c_str());
}

} // namespace lsim::sleep
