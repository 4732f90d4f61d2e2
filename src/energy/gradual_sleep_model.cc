#include "energy/gradual_sleep_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "energy/breakeven.hh"

namespace lsim::energy
{

GradualSleepModel::GradualSleepModel(const ModelParams &params,
                                     unsigned num_slices)
    : model_(params), slices_(num_slices)
{
    // An infinite breakeven (sleep never pays off) gives a single
    // slice, pure MaxSleep behavior, as good as any.
    if (slices_ == 0)
        slices_ = breakevenSlices(params);
}

CycleCounts
GradualSleepModel::idleCounts(Cycle interval) const
{
    const double n = static_cast<double>(slices_);
    const double len = static_cast<double>(interval);
    // Slices 1..m have entered sleep by the end of the interval.
    const double m = std::min(len, n);

    CycleCounts cc;
    // Transition weight: m slices of size 1/n each performed a
    // (scaled) transition.
    cc.transitions = m / n;
    // Slice i idles uncontrolled for (i-1) cycles: sum_{i=1..m} (i-1)
    // = m(m-1)/2, each weighted 1/n. Slices that never slept idle
    // uncontrolled for the whole interval.
    cc.unctrl_idle = (m * (m - 1.0) / 2.0) / n + (n - m) / n * len;
    // Slice i sleeps for (L-i+1) cycles: sum_{i=1..m} (L-i+1)
    // = m*L - m(m-1)/2 ... each weighted 1/n.
    cc.sleep = (m * len - m * (m - 1.0) / 2.0) / n;
    return cc;
}

double
GradualSleepModel::idleEnergy(Cycle interval) const
{
    return model_.normalizedEnergy(idleCounts(interval));
}

double
GradualSleepModel::maxSleepIdleEnergy(Cycle interval) const
{
    CycleCounts cc;
    cc.transitions = 1.0;
    cc.sleep = static_cast<double>(interval);
    return model_.normalizedEnergy(cc);
}

double
GradualSleepModel::alwaysActiveIdleEnergy(Cycle interval) const
{
    CycleCounts cc;
    cc.unctrl_idle = static_cast<double>(interval);
    return model_.normalizedEnergy(cc);
}

} // namespace lsim::energy
