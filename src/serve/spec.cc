#include "serve/spec.hh"

#include <limits>
#include <stdexcept>
#include <string>

#include "trace/profile_json.hh"

namespace lsim::serve
{

api::SweepConfig
sweepConfigFromJson(const JsonValue &v, std::size_t index)
{
    const std::string where =
        "batch spec sweep " + std::to_string(index);
    if (!v.isObject())
        throw std::invalid_argument(where +
                                    ": expected a JSON object");

    api::SweepConfig cfg;
    double p_min = 0.05, p_max = 1.0, alpha = 0.5;
    unsigned steps = 20;
    const auto asU32 = [](const JsonValue &value,
                          const char *field) {
        const std::uint64_t n = value.asU64();
        if (n > std::numeric_limits<unsigned>::max())
            throw std::invalid_argument(std::string(field) +
                                        ": value too large");
        return static_cast<unsigned>(n);
    };
    try {
        for (const auto &[key, value] : v.members()) {
            if (key == "benchmarks") {
                for (const auto &name : value.items())
                    cfg.workloads.push_back(name.asString());
            } else if (key == "policies") {
                for (const auto &spec : value.items())
                    cfg.policies.push_back(spec.asString());
            } else if (key == "profiles") {
                for (const auto &path : value.items())
                    cfg.profiles.push_back(
                        trace::loadWorkloadProfile(path.asString()));
            } else if (key == "imports") {
                for (const auto &path : value.items())
                    cfg.imports.push_back(path.asString());
            } else if (key == "p_min") {
                p_min = value.asNumber();
            } else if (key == "p_max") {
                p_max = value.asNumber();
            } else if (key == "steps") {
                steps = asU32(value, "steps");
            } else if (key == "alpha") {
                alpha = value.asNumber();
            } else if (key == "insts") {
                cfg.insts = value.asU64();
            } else if (key == "seed") {
                cfg.seed = value.asU64();
            } else if (key == "fus") {
                if (value.isString() && value.asString() == "auto") {
                    cfg.fus = api::auto_select;
                } else {
                    // 0 is api::auto_select's value: without this
                    // check it would silently mean "auto".
                    const std::uint64_t n = value.asU64();
                    if (n == 0 || n > 8)
                        throw std::invalid_argument(
                            "bad fus '" + std::to_string(n) +
                            "': expected a count in 1-8 or 'auto'");
                    cfg.fus = static_cast<unsigned>(n);
                }
            } else {
                throw std::invalid_argument("unknown field '" + key +
                                            "'");
            }
        }
        cfg.technologies = api::pSweep(p_min, p_max, steps, alpha);
    } catch (const std::invalid_argument &err) {
        throw std::invalid_argument(where + ": " + err.what());
    }
    return cfg;
}

api::BatchConfig
batchConfigFromJson(const JsonValue &doc)
{
    if (!doc.isObject() || !doc.find("sweeps"))
        throw std::invalid_argument(
            "batch spec must be an object with a 'sweeps' array");
    for (const auto &[key, value] : doc.members()) {
        (void)value;
        if (key != "sweeps")
            throw std::invalid_argument(
                "batch spec: unknown field '" + key + "'");
    }
    const auto &sweeps = doc.at("sweeps").items();
    if (sweeps.empty())
        throw std::invalid_argument("batch spec: 'sweeps' is empty");

    api::BatchConfig batch;
    for (std::size_t i = 0; i < sweeps.size(); ++i)
        batch.sweeps.push_back(sweepConfigFromJson(sweeps[i], i));
    return batch;
}

} // namespace lsim::serve
