#include "sleep/idle_stats.hh"

namespace lsim::sleep
{

IdleIntervalRecorder::IdleIntervalRecorder(std::uint64_t clamp)
    : hist_(clamp)
{
}

void
IdleIntervalRecorder::idleRuns(Cycle len, std::uint64_t count)
{
    if (len == 0 || count == 0)
        return;
    closeRun();
    const double weight =
        static_cast<double>(len) * static_cast<double>(count);
    hist_.sample(len, weight);
    lengths_.sampleN(static_cast<double>(len), count);
    total_ += len * count;
    idle_ += len * count;
    intervals_ += count;
}

void
IdleIntervalRecorder::finish()
{
    closeRun();
}

double
IdleIntervalRecorder::idleFraction() const
{
    return total_ ? static_cast<double>(idleCycles()) /
        static_cast<double>(total_) : 0.0;
}

double
IdleIntervalRecorder::meanInterval() const
{
    return lengths_.mean();
}

void
IdleIntervalRecorder::reset()
{
    hist_.reset();
    lengths_.reset();
    total_ = idle_ = run_ = 0;
    intervals_ = 0;
}

} // namespace lsim::sleep
