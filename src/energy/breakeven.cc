#include "energy/breakeven.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace lsim::energy
{

double
breakevenInterval(const ModelParams &params)
{
    params.validate();
    if (params.p <= 0.0 || params.k >= 1.0 || params.alpha >= 1.0)
        return std::numeric_limits<double>::infinity();
    return ((1.0 - params.alpha) + params.s) /
        (params.p * (1.0 - params.alpha) * (1.0 - params.k));
}

namespace
{

/** @p be (finite, >= 0) rounded to the nearest integer, halves away
 * from zero, or T's maximum when it does not fit. double(max) is
 * exact for a 32-bit T and rounds up to 2^64 for a 64-bit one, so
 * every value below it rounds into range. */
template <typename T>
T
roundSaturated(double be)
{
    constexpr T kMax = std::numeric_limits<T>::max();
    if (!(be < static_cast<double>(kMax)))
        return kMax;
    return static_cast<T>(std::round(be));
}

} // namespace

unsigned
breakevenSlices(const ModelParams &params)
{
    const double be = breakevenInterval(params);
    if (!std::isfinite(be))
        return 1;
    return std::max(1u, roundSaturated<unsigned>(be));
}

Cycle
breakevenTimeout(const ModelParams &params)
{
    const double be = breakevenInterval(params);
    return std::isfinite(be) ? roundSaturated<Cycle>(be)
                             : Cycle{1} << 20;
}

double
breakevenIntervalNumeric(const EnergyModel &model)
{
    const double e_ui = model.unctrlIdleCycleEnergy();
    const double e_sl = model.sleepCycleEnergy();
    const double e_tr = model.transitionEnergy();
    if (e_ui <= e_sl)
        return std::numeric_limits<double>::infinity();
    return e_tr / (e_ui - e_sl);
}

bool
sleepPaysOff(const ModelParams &params, double interval)
{
    return interval >= breakevenInterval(params);
}

} // namespace lsim::energy
