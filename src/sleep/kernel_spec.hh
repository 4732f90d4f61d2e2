/**
 * @file
 * The one description of a sleep policy's configuration.
 *
 * A KernelSpec names a policy kind and the handful of parameters
 * that fix its accounting (slice schedule, timeout, breakeven, EWMA
 * weight). The registry maps every policy spec string to a
 * KernelSpec at a technology point, and everything else follows
 * from it:
 *
 *  - the replay engine deduplicates accumulators structurally (two
 *    configurations with equal specs accumulate bit-identical
 *    counts) and replays each kind's configurations as the lanes of
 *    one batch kernel (replay/kernels.hh);
 *  - makeController() builds the scalar reference: the controller
 *    whose doIdleRuns() arithmetic every kernel reproduces bit for
 *    bit, and whose name() labels the results.
 *
 * Adding a policy therefore means four things: a Kind here, its
 * kernel in replay/kernels.cc, its controller in
 * sleep/controllers.hh (the reference), and a registry entry in
 * sleep/policy_registry.cc.
 *
 * Adaptive is the one kind with history: its EWMA prediction carries
 * from one idle run to the next, so it is not historyFree(), and the
 * engine groups its lanes one kernel block per task.
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
 * Kernel parameters of a policy configuration. Only the fields of
 * its kind are meaningful; the rest stay value-initialized so the
 * defaulted equality compares whole configurations.
 */
struct KernelSpec
{
    enum class Kind : std::uint8_t
    {
        AlwaysActive,    ///< all idle uncontrolled
        MaxSleep,        ///< sleep from the first idle cycle
        NoOverhead,      ///< MaxSleep with free transitions
        Gradual,         ///< equal slices; uses `slices`
        WeightedGradual, ///< unequal slices; uses `weights`
        Timeout,         ///< sleep past a timeout; uses `timeout`
        Oracle,          ///< sleep iff len >= threshold; uses `breakeven`
        Adaptive,        ///< EWMA predictor; `breakeven`, `ewma_weight`
    };

    Kind kind = Kind::AlwaysActive;
    unsigned slices = 0;          ///< Gradual slice count (>= 1)
    Cycle timeout = 0;            ///< Timeout threshold, cycles
    double breakeven = 0.0;       ///< Oracle/Adaptive breakeven, cycles
    double ewma_weight = 0.0;     ///< Adaptive: newest interval's weight
    std::vector<double> weights;  ///< WeightedGradual slice fractions

    /**
     * True when each interval's accounting is a closed form of its
     * length alone. False for Adaptive, whose prediction is
     * history; the engine groups only Adaptive lanes in kernel
     * blocks, and every other kind in one group.
     */
    bool historyFree() const { return kind != Kind::Adaptive; }

    bool operator==(const KernelSpec &) const = default;

    /** Short diagnostic key, e.g. "gradual:12", "timeout:64". */
    std::string key() const;

    /**
     * A fresh controller with exactly this configuration: the
     * scalar reference the kernels match, and the source of the
     * policy's report name. Throws std::invalid_argument on
     * parameters the controller refuses (no slices, weights that do
     * not sum to 1, an EWMA weight outside (0, 1]).
     */
    std::unique_ptr<SleepController> makeController() const;
};

} // namespace lsim::sleep

#endif // LSIM_SLEEP_KERNEL_SPEC_HH
