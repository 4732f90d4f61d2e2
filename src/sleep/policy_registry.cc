#include "sleep/policy_registry.hh"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/table.hh"
#include "energy/breakeven.hh"

namespace lsim::sleep
{

namespace
{

[[noreturn]] void
badArg(const std::string &key, const std::string &arg,
       const std::string &expect)
{
    throw std::invalid_argument("policy '" + key + "': bad argument '" +
                                arg + "' (" + expect + ")");
}

unsigned
parseCount(const std::string &key, const std::string &arg)
{
    // stoul accepts a leading '-' (wrapping around); require digits.
    if (arg.empty() || arg[0] < '0' || arg[0] > '9')
        badArg(key, arg, "expected a positive integer");
    std::size_t pos = 0;
    unsigned long v = 0;
    try {
        v = std::stoul(arg, &pos);
    } catch (const std::exception &) {
        badArg(key, arg, "expected a positive integer");
    }
    if (pos != arg.size() || v == 0 ||
        v > std::numeric_limits<unsigned>::max())
        badArg(key, arg, "expected a positive 32-bit integer");
    return static_cast<unsigned>(v);
}

double
parseFraction(const std::string &key, const std::string &arg)
{
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(arg, &pos);
    } catch (const std::exception &) {
        badArg(key, arg, "expected a number in (0, 1]");
    }
    if (pos != arg.size() || !(v > 0.0) || v > 1.0)
        badArg(key, arg, "expected a number in (0, 1]");
    return v;
}

/** Comma-separated slice weights, e.g. "0.5,0.25,0.25". */
std::vector<double>
parseWeights(const std::string &key, const std::string &arg)
{
    std::vector<double> weights;
    std::stringstream ss(arg);
    std::string cell;
    while (std::getline(ss, cell, ','))
        weights.push_back(parseFraction(key, cell));
    if (weights.empty())
        badArg(key, arg, "expected comma-separated weights");
    return weights;
}

} // namespace

PolicyRegistry::PolicyRegistry()
{
    // Built-ins register their kernel parameters (SpecFn): the
    // registry derives controllers from the spec, and the replay
    // engine classifies (point, policy) configurations without
    // constructing one controller per technology point.
    add("always-active", "never asserts Sleep (all idle uncontrolled)",
        SpecFn([](const energy::ModelParams &, const std::string &) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::AlwaysActive;
            return spec;
        }));
    add("max-sleep", "asserts Sleep on the first idle cycle",
        SpecFn([](const energy::ModelParams &, const std::string &) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::MaxSleep;
            return spec;
        }));
    add("no-overhead",
        "MaxSleep with free transitions (unachievable lower bound)",
        SpecFn([](const energy::ModelParams &, const std::string &) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::NoOverhead;
            return spec;
        }));
    add("gradual",
        "GradualSleep; slices = breakeven interval, or gradual:<n>",
        SpecFn([](const energy::ModelParams &params,
                  const std::string &arg) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::Gradual;
            spec.slices = arg.empty() ? energy::breakevenSlices(params)
                                      : parseCount("gradual", arg);
            return spec;
        }));
    add("weighted-gradual",
        "GradualSleep with unequal slices; default 64-bit datapath "
        "weights, or weighted-gradual:<w1,w2,...> (sum to 1)",
        SpecFn([](const energy::ModelParams &,
                  const std::string &arg) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::WeightedGradual;
            spec.weights = arg.empty()
                ? WeightedGradualSleepController::datapathWeights()
                : parseWeights("weighted-gradual", arg);
            return spec;
        }));
    add("timeout",
        "sleep once idle exceeds a timeout; default breakeven, or "
        "timeout:<cycles>",
        SpecFn([](const energy::ModelParams &params,
                  const std::string &arg) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::Timeout;
            spec.timeout = arg.empty() ? energy::breakevenTimeout(params)
                                       : parseCount("timeout", arg);
            return spec;
        }));
    add("oracle",
        "knows each interval's length; sleeps iff >= breakeven",
        SpecFn([](const energy::ModelParams &params,
                  const std::string &) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::Oracle;
            spec.breakeven = energy::breakevenInterval(params);
            return spec;
        }));
    add("adaptive",
        "EWMA interval predictor; default weight 0.25, or "
        "adaptive:<weight>",
        SpecFn([](const energy::ModelParams &params,
                  const std::string &arg) {
            KernelSpec spec;
            spec.kind = KernelSpec::Kind::Adaptive;
            spec.breakeven = energy::breakevenInterval(params);
            spec.ewma_weight =
                arg.empty() ? 0.25 : parseFraction("adaptive", arg);
            return spec;
        }));
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

void
PolicyRegistry::add(const std::string &key, const std::string &summary,
                    Factory factory)
{
    if (key.empty() || key.find(':') != std::string::npos)
        throw std::invalid_argument("policy key '" + key +
                                    "' must be non-empty and ':'-free");
    entries_[key] = Entry{summary, std::move(factory), nullptr};
}

void
PolicyRegistry::add(const std::string &key, const std::string &summary,
                    SpecFn spec)
{
    if (key.empty() || key.find(':') != std::string::npos)
        throw std::invalid_argument("policy key '" + key +
                                    "' must be non-empty and ':'-free");
    entries_[key] = Entry{summary, nullptr, std::move(spec)};
}

const PolicyRegistry::Entry &
PolicyRegistry::entryFor(const std::string &spec,
                         std::string &arg) const
{
    const auto colon = spec.find(':');
    arg = colon == std::string::npos ? "" : spec.substr(colon + 1);
    const auto it = entries_.find(spec.substr(0, colon));
    if (it == entries_.end()) {
        std::string known;
        for (const auto &[k, e] : entries_)
            known += (known.empty() ? "" : ", ") + k;
        throw std::invalid_argument("unknown policy '" + spec +
                                    "' (known: " + known + ")");
    }
    return it->second;
}

PolicyRegistry::ResolvedSpec
PolicyRegistry::resolve(const std::string &spec) const
{
    std::string arg;
    const Entry &entry = entryFor(spec, arg);
    return ResolvedSpec(entry.factory, entry.spec, std::move(arg));
}

std::unique_ptr<SleepController>
PolicyRegistry::ResolvedSpec::make(
    const energy::ModelParams &params) const
{
    if (spec_)
        return spec_(params, arg_).makeController();
    return factory_(params, arg_);
}

std::unique_ptr<SleepController>
PolicyRegistry::make(const std::string &spec,
                     const energy::ModelParams &params) const
{
    // Direct lookup-and-call: this is the scalar path's per-cell
    // construction; no throwaway ResolvedSpec copies.
    std::string arg;
    const Entry &entry = entryFor(spec, arg);
    if (entry.spec)
        return entry.spec(params, arg).makeController();
    return entry.factory(params, arg);
}

ControllerSet
PolicyRegistry::makeSet(const std::vector<std::string> &specs,
                        const energy::ModelParams &params) const
{
    ControllerSet set;
    set.reserve(specs.size());
    for (const auto &spec : specs)
        set.push_back(make(spec, params));
    return set;
}

bool
PolicyRegistry::has(const std::string &spec) const
{
    return entries_.count(spec.substr(0, spec.find(':'))) > 0;
}

std::vector<std::string>
PolicyRegistry::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[k, e] : entries_)
        out.push_back(k);
    return out;
}

const std::string &
PolicyRegistry::summary(const std::string &key) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        throw std::invalid_argument("unknown policy key '" + key + "'");
    return it->second.summary;
}

std::string
PolicyRegistry::keyFor(const SleepController &ctrl)
{
    const std::string name = ctrl.name();
    if (name == "AlwaysActive")
        return "always-active";
    if (name == "MaxSleep")
        return "max-sleep";
    if (name == "NoOverhead")
        return "no-overhead";
    if (name == "GradualSleep") {
        const auto &gs =
            dynamic_cast<const GradualSleepController &>(ctrl);
        return "gradual:" + std::to_string(gs.numSlices());
    }
    if (name == "WeightedGradualSleep") {
        const auto &wg =
            dynamic_cast<const WeightedGradualSleepController &>(
                ctrl);
        std::string spec = "weighted-gradual:";
        for (std::size_t i = 0; i < wg.weights().size(); ++i) {
            if (i)
                spec += ',';
            spec += compactNumber(wg.weights()[i]);
        }
        return spec;
    }
    if (name == "Oracle")
        return "oracle";
    if (name == "Adaptive") {
        const auto &ad =
            dynamic_cast<const AdaptiveController &>(ctrl);
        return "adaptive:" + compactNumber(ad.ewmaWeight());
    }
    // "Timeout(N)" -> "timeout:N"
    if (name.rfind("Timeout(", 0) == 0 && name.back() == ')')
        return "timeout:" +
               name.substr(8, name.size() - 9);
    throw std::invalid_argument("no registry key for controller '" +
                                name + "'");
}

const std::vector<std::string> &
PolicyRegistry::paperSpecs()
{
    static const std::vector<std::string> specs = {
        "max-sleep", "gradual", "always-active", "no-overhead"};
    return specs;
}

const std::vector<std::string> &
PolicyRegistry::extensionSpecs()
{
    static const std::vector<std::string> specs = {"timeout", "oracle",
                                                   "adaptive"};
    return specs;
}

} // namespace lsim::sleep
