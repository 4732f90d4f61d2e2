#include "sleep/kernel_spec.hh"

#include <cstdio>
#include <stdexcept>

#include "sleep/controllers.hh"

namespace lsim::sleep
{

std::string
KernelSpec::key() const
{
    switch (kind) {
    case Kind::AlwaysActive:
        return "always-active";
    case Kind::MaxSleep:
        return "max-sleep";
    case Kind::NoOverhead:
        return "no-overhead";
    case Kind::Gradual:
        return "gradual:" + std::to_string(slices);
    case Kind::WeightedGradual: {
        std::string out = "weighted-gradual:";
        char buf[40];
        for (std::size_t i = 0; i < weights.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%a", weights[i]);
            if (i)
                out += ',';
            out += buf;
        }
        return out;
    }
    case Kind::Timeout:
        return "timeout:" + std::to_string(timeout);
    case Kind::Oracle: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a", breakeven);
        return "oracle:" + std::string(buf);
    }
    case Kind::Adaptive: {
        char buf[80];
        std::snprintf(buf, sizeof(buf), "adaptive:%a,%a", breakeven,
                      ewma_weight);
        return buf;
    }
    }
    throw std::logic_error("KernelSpec::key: bad kind " +
                           std::to_string(static_cast<int>(kind)));
}

std::unique_ptr<SleepController>
KernelSpec::makeController() const
{
    switch (kind) {
    case Kind::AlwaysActive:
        return std::make_unique<AlwaysActiveController>();
    case Kind::MaxSleep:
        return std::make_unique<MaxSleepController>();
    case Kind::NoOverhead:
        return std::make_unique<NoOverheadController>();
    case Kind::Gradual:
        return std::make_unique<GradualSleepController>(slices);
    case Kind::WeightedGradual:
        return std::make_unique<WeightedGradualSleepController>(
            weights);
    case Kind::Timeout:
        return std::make_unique<TimeoutController>(timeout);
    case Kind::Oracle:
        return std::make_unique<OracleController>(breakeven);
    case Kind::Adaptive:
        return std::make_unique<AdaptiveController>(breakeven,
                                                    ewma_weight);
    }
    throw std::logic_error("KernelSpec::makeController: bad kind " +
                           std::to_string(static_cast<int>(kind)));
}

} // namespace lsim::sleep
