/**
 * @file
 * Controller self-classification for batch replay kernels.
 *
 * A history-free sleep policy's contribution to CycleCounts is a
 * pure function of each idle interval's length, fully determined by
 * a handful of closed-form parameters (slice schedule, timeout,
 * breakeven threshold). KernelSpec is a controller's own statement
 * of those parameters: every built-in controller overrides
 * SleepController::kernelSpec() to describe itself, so the replay
 * engine can
 *
 *  - deduplicate accumulators structurally (two controllers with
 *    equal specs accumulate bit-identical counts),
 *  - replay whole interval arrays through branch-regular batch
 *    kernels (replay/kernels.hh) instead of one virtual dispatch
 *    per interval length, and
 *  - reconstruct fresh controller instances for chunk-sharded
 *    replay without dynamic_cast chains.
 *
 * Adaptive is the one built-in policy with history: its EWMA
 * prediction carries from one idle run to the next. Its spec
 * (breakeven plus EWMA weight) still identifies the configuration
 * and has a batch kernel, but the policy is not historyFree(): its
 * stream is never sharded into chunks. Externally registered
 * controllers that do not override kernelSpec() report Kind::None
 * and transparently take the virtual-dispatch fallback path — the
 * registry remains the single source of policy truth, and an
 * unclassified policy is never silently kernelized.
 */

#ifndef LSIM_SLEEP_KERNEL_SPEC_HH
#define LSIM_SLEEP_KERNEL_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lsim::sleep
{

class SleepController;

/**
 * Kernel parameters of a policy, as reported by
 * SleepController::kernelSpec(). Only the fields of the reported
 * kind are meaningful; the rest stay value-initialized so the
 * defaulted equality compares whole configurations.
 */
struct KernelSpec
{
    enum class Kind : std::uint8_t
    {
        None,            ///< no closed form (history/unknown): fallback
        AlwaysActive,    ///< all idle uncontrolled
        MaxSleep,        ///< sleep from the first idle cycle
        NoOverhead,      ///< MaxSleep with free transitions
        Gradual,         ///< equal slices; uses `slices`
        WeightedGradual, ///< unequal slices; uses `weights`
        Timeout,         ///< sleep past a timeout; uses `timeout`
        Oracle,          ///< sleep iff len >= threshold; uses `breakeven`
        Adaptive,        ///< EWMA predictor; `breakeven`, `ewma_weight`
    };

    Kind kind = Kind::None;
    unsigned slices = 0;          ///< Gradual slice count (>= 1)
    Cycle timeout = 0;            ///< Timeout threshold, cycles
    double breakeven = 0.0;       ///< Oracle/Adaptive breakeven, cycles
    double ewma_weight = 0.0;     ///< Adaptive: newest interval's weight
    std::vector<double> weights;  ///< WeightedGradual slice fractions

    /**
     * True when each interval's accounting is a closed form of its
     * length alone, so the interval stream may be sharded into
     * chunks. False for Adaptive, whose prediction is history.
     */
    bool historyFree() const
    {
        return kind != Kind::None && kind != Kind::Adaptive;
    }

    /** True when a batch kernel replays this configuration. */
    bool hasKernel() const { return kind != Kind::None; }

    bool operator==(const KernelSpec &) const = default;

    /** Short diagnostic key, e.g. "gradual:12", "timeout:64". */
    std::string key() const;

    /**
     * A fresh controller with exactly this configuration — the
     * chunk-replay counterpart of the prototype controller. fatal()s
     * on Kind::None (fallback policies cannot be reconstructed).
     */
    std::unique_ptr<SleepController> makeController() const;
};

} // namespace lsim::sleep

#endif // LSIM_SLEEP_KERNEL_SPEC_HH
