#include "harness/benchmarks.hh"

#include <stdexcept>

namespace lsim::harness
{

const WorkloadSim &
SuiteRun::byName(const std::string &name) const
{
    for (const auto &ws : sims)
        if (ws.name == name)
            return ws;
    throw std::invalid_argument("no benchmark named '" + name +
                                "' in suite run");
}

stats::Log2Histogram
SuiteRun::combinedIdleHistogram() const
{
    stats::Log2Histogram combined(8192);
    for (const auto &ws : sims)
        combined.merge(ws.idle_hist);
    // Average so each benchmark contributes equally; the per-sim
    // histograms are fractions of each FU's time summed over FUs.
    if (!sims.empty()) {
        stats::Log2Histogram avg(8192);
        for (std::size_t b = 0; b < combined.numBuckets(); ++b) {
            const double w = combined.bucketWeight(b) /
                static_cast<double>(sims.size());
            if (w > 0.0)
                avg.sample(combined.bucketLow(b), w);
        }
        return avg;
    }
    return combined;
}

double
SuiteRun::meanIdleFraction() const
{
    if (sims.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &ws : sims)
        sum += ws.idle.idleFraction();
    return sum / static_cast<double>(sims.size());
}

} // namespace lsim::harness
