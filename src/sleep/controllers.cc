#include "sleep/controllers.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lsim::sleep
{

void
SleepController::assertFlushed(const char *call) const
{
    if (pending_idle_ > 0)
        throw std::invalid_argument(
            "SleepController::" + std::string(call) + ": " +
            std::to_string(pending_idle_) +
            " cycles of tick()-fed idle are pending; call finish() "
            "before explicit run calls");
}

void
SleepController::doActiveRun(Cycle len)
{
    counts_.active += static_cast<double>(len);
}

void
SleepController::doIdleRuns(Cycle len, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        doIdleRun(len);
}

void
SleepController::reset()
{
    counts_ = energy::CycleCounts{};
    pending_idle_ = 0;
}

void
AlwaysActiveController::doIdleRun(Cycle len)
{
    counts_.unctrl_idle += static_cast<double>(len);
}

void
AlwaysActiveController::doIdleRuns(Cycle len, std::uint64_t count)
{
    counts_.unctrl_idle +=
        static_cast<double>(len) * static_cast<double>(count);
}

void
MaxSleepController::doIdleRun(Cycle len)
{
    if (len == 0)
        return;
    counts_.transitions += 1.0;
    counts_.sleep += static_cast<double>(len);
}

void
MaxSleepController::doIdleRuns(Cycle len, std::uint64_t count)
{
    if (len == 0)
        return;
    counts_.transitions += static_cast<double>(count);
    counts_.sleep +=
        static_cast<double>(len) * static_cast<double>(count);
}

void
NoOverheadController::doIdleRun(Cycle len)
{
    counts_.sleep += static_cast<double>(len);
}

void
NoOverheadController::doIdleRuns(Cycle len, std::uint64_t count)
{
    counts_.sleep +=
        static_cast<double>(len) * static_cast<double>(count);
}

GradualSleepController::GradualSleepController(unsigned num_slices)
    : slices_(num_slices)
{
    if (slices_ == 0)
        throw std::invalid_argument(
            "GradualSleepController: slice count must be >= 1");
}

void
GradualSleepController::doIdleRun(Cycle len)
{
    // Closed form over the whole run (equivalent to the per-cycle
    // shift register; see GradualSleepModel::idleCounts and the
    // cross-validation tests). m slices entered sleep during the run.
    const double n = static_cast<double>(slices_);
    const double length = static_cast<double>(len);
    const double m = std::min(length, n);

    counts_.transitions += m / n;
    counts_.unctrl_idle +=
        (m * (m - 1.0) / 2.0) / n + (n - m) / n * length;
    counts_.sleep += (m * length - m * (m - 1.0) / 2.0) / n;
}

void
GradualSleepController::doIdleRuns(Cycle len, std::uint64_t count)
{
    // Per-run accounting is history-free: scale one run by count.
    energy::CycleCounts before = counts_;
    doIdleRun(len);
    const double n = static_cast<double>(count);
    counts_.transitions =
        before.transitions + (counts_.transitions - before.transitions) * n;
    counts_.unctrl_idle =
        before.unctrl_idle + (counts_.unctrl_idle - before.unctrl_idle) * n;
    counts_.sleep = before.sleep + (counts_.sleep - before.sleep) * n;
}

void
GradualSleepController::reset()
{
    SleepController::reset();
}

WeightedGradualSleepController::WeightedGradualSleepController(
    std::vector<double> weights)
    : weights_(std::move(weights))
{
    if (weights_.empty())
        throw std::invalid_argument(
            "WeightedGradualSleepController: no slices");
    double total = 0.0;
    for (double w : weights_) {
        if (w <= 0.0)
            throw std::invalid_argument(
                "WeightedGradualSleepController: slice weight " +
                std::to_string(w) + " must be positive");
        total += w;
        asleep_after_.push_back(total);
    }
    if (std::abs(total - 1.0) > 1e-9)
        throw std::invalid_argument(
            "WeightedGradualSleepController: weights sum to " +
            std::to_string(total) + ", expected 1");
    asleep_after_.back() = 1.0; // exact despite rounding
}

std::vector<double>
WeightedGradualSleepController::datapathWeights()
{
    // High 32 bits, then 16, 8, and the low byte of a 64-bit
    // datapath.
    return {32.0 / 64, 16.0 / 64, 8.0 / 64, 8.0 / 64};
}

void
WeightedGradualSleepController::doIdleRun(Cycle len)
{
    doIdleRuns(len, 1);
}

void
WeightedGradualSleepController::doIdleRuns(Cycle len,
                                         std::uint64_t count)
{
    if (len == 0 || count == 0)
        return;
    const double n = static_cast<double>(count);
    const double length = static_cast<double>(len);
    // Slice i (0-based) transitions at idle cycle i+1 when the run
    // is long enough; it idles uncontrolled for i cycles and sleeps
    // for (len - i) cycles. Slices that never transition idle
    // uncontrolled for the whole run.
    const std::size_t m =
        std::min<std::size_t>(weights_.size(),
                              static_cast<std::size_t>(len));
    double trans = 0.0, ui = 0.0, sleep = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double w = weights_[i];
        trans += w;
        ui += w * static_cast<double>(i);
        sleep += w * (length - static_cast<double>(i));
    }
    const double awake = 1.0 - (m > 0 ? asleep_after_[m - 1] : 0.0);
    ui += awake * length;
    counts_.transitions += trans * n;
    counts_.unctrl_idle += ui * n;
    counts_.sleep += sleep * n;
}

TimeoutController::TimeoutController(Cycle timeout)
    : timeout_(timeout)
{
}

void
TimeoutController::doIdleRun(Cycle len)
{
    const double length = static_cast<double>(len);
    const double wait = static_cast<double>(std::min(len, timeout_));
    counts_.unctrl_idle += wait;
    if (len > timeout_) {
        counts_.transitions += 1.0;
        counts_.sleep += length - wait;
    }
}

void
TimeoutController::doIdleRuns(Cycle len, std::uint64_t count)
{
    const double n = static_cast<double>(count);
    const double length = static_cast<double>(len);
    const double wait = static_cast<double>(std::min(len, timeout_));
    counts_.unctrl_idle += wait * n;
    if (len > timeout_) {
        counts_.transitions += n;
        counts_.sleep += (length - wait) * n;
    }
}

std::string
TimeoutController::name() const
{
    return "Timeout(" + std::to_string(timeout_) + ")";
}

OracleController::OracleController(double breakeven)
    : breakeven_(breakeven)
{
}

void
OracleController::doIdleRun(Cycle len)
{
    if (static_cast<double>(len) >= breakeven_) {
        counts_.transitions += 1.0;
        counts_.sleep += static_cast<double>(len);
    } else {
        counts_.unctrl_idle += static_cast<double>(len);
    }
}

void
OracleController::doIdleRuns(Cycle len, std::uint64_t count)
{
    const double n = static_cast<double>(count);
    if (static_cast<double>(len) >= breakeven_) {
        counts_.transitions += n;
        counts_.sleep += static_cast<double>(len) * n;
    } else {
        counts_.unctrl_idle += static_cast<double>(len) * n;
    }
}

AdaptiveController::AdaptiveController(double breakeven,
                                       double ewma_weight)
    : breakeven_(breakeven), weight_(ewma_weight),
      predicted_(breakeven)
{
    if (weight_ <= 0.0 || weight_ > 1.0)
        throw std::invalid_argument(
            "AdaptiveController: EWMA weight " +
            std::to_string(weight_) + " outside (0,1]");
}

void
AdaptiveController::doIdleRun(Cycle len)
{
    const double length = static_cast<double>(len);
    if (predicted_ >= breakeven_) {
        // Predicted long: sleep from the first idle cycle.
        counts_.transitions += 1.0;
        counts_.sleep += length;
    } else {
        // Predicted short: hedge with a timeout at the breakeven.
        const double wait = std::min(length, breakeven_);
        counts_.unctrl_idle += wait;
        if (length > breakeven_) {
            counts_.transitions += 1.0;
            counts_.sleep += length - wait;
        }
    }
    predicted_ = weight_ * length + (1.0 - weight_) * predicted_;
}

void
AdaptiveController::reset()
{
    SleepController::reset();
    predicted_ = breakeven_;
}

} // namespace lsim::sleep
