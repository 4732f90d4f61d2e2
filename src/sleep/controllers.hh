/**
 * @file
 * Cycle-level sleep-mode controllers.
 *
 * A controller consumes the per-cycle busy/idle stream of one
 * functional unit and decides, every cycle, which operating category
 * the unit (or which fraction of it, for GradualSleep) is in. The
 * output is a CycleCounts record that the EnergyModel converts to
 * energy — the empirical half of the paper (Section 5).
 *
 * Wake-up is hidden behind the register-read stage (Figure 6), so no
 * controller adds performance cost; they differ only in energy.
 *
 * Beyond the paper's AlwaysActive / MaxSleep / NoOverhead /
 * GradualSleep, two extension controllers are provided for the
 * "would a more complex control strategy be warranted?" ablation:
 * a classic timeout policy and an oracle that knows each idle
 * interval's length in advance.
 *
 * Each controller is the scalar reference of one
 * sleep::KernelSpec kind: KernelSpec::makeController() builds it,
 * api::evaluateProfile replays through it, and the replay engine's
 * batch kernels (replay/kernels.hh) reproduce its arithmetic bit for
 * bit. Adding a policy means four things: a KernelSpec::Kind, its
 * kernel, its controller here, and a registry entry
 * (sleep/policy_registry.cc).
 */

#ifndef LSIM_SLEEP_CONTROLLERS_HH
#define LSIM_SLEEP_CONTROLLERS_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "energy/model.hh"

namespace lsim::sleep
{

/**
 * Abstract sleep controller. Feed cycles with tick()/idleRun()/
 * activeRun() (run variants are a fast path and, for the oracle, the
 * source of lookahead); read back counts() at the end.
 *
 * The run-granularity entry points are non-virtual guards: mixing
 * tick() with explicit idleRun()/activeRun() calls while an idle
 * interval is still accumulating would silently split that interval,
 * so the guards throw std::invalid_argument unless the pending idle
 * run has been flushed with finish(). Policies implement the
 * protected do*() hooks.
 */
class SleepController
{
  public:
    virtual ~SleepController() = default;

    /**
     * Process one cycle; @p busy is true when the FU computes.
     * Consecutive idle ticks accumulate into one interval, delivered
     * to doIdleRun() when activity resumes — call finish() after the
     * last tick to flush a trailing idle interval. Interleaving
     * tick() with explicit idleRun()/activeRun() calls without an
     * intervening finish() is rejected by those guards.
     */
    void
    tick(bool busy)
    {
        if (busy) {
            finish();
            doActiveRun(1);
        } else {
            ++pending_idle_;
        }
    }

    /** Flush the open idle interval accumulated by tick(). */
    void
    finish()
    {
        if (pending_idle_ > 0) {
            const Cycle len = pending_idle_;
            pending_idle_ = 0;
            doIdleRun(len);
        }
    }

    /**
     * Process @p len consecutive idle cycles as one complete
     * interval. Throws if tick()-accumulated idle is pending.
     */
    void
    idleRun(Cycle len)
    {
        assertFlushed("idleRun");
        doIdleRun(len);
    }

    /**
     * Process @p count separate idle runs of @p len cycles each
     * (separated by activity). Throws if tick()-accumulated idle
     * is pending.
     */
    void
    idleRuns(Cycle len, std::uint64_t count)
    {
        assertFlushed("idleRuns");
        doIdleRuns(len, count);
    }

    /**
     * Process @p len consecutive busy cycles. Throws if
     * tick()-accumulated idle is pending.
     */
    void
    activeRun(Cycle len)
    {
        assertFlushed("activeRun");
        doActiveRun(len);
    }

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /** Accumulated operating-category counts. */
    const energy::CycleCounts &counts() const { return counts_; }

    /** Reset accumulated state. */
    virtual void reset();

  protected:
    /** Policy hook: one complete idle interval of @p len cycles. */
    virtual void doIdleRun(Cycle len) = 0;

    /**
     * Policy hook for @p count separate idle runs of @p len cycles
     * each. The default loops over doIdleRun(); controllers whose
     * per-run accounting is independent of history override this
     * with a multiply, enabling O(distinct lengths) replay of
     * idle-interval histograms during technology sweeps.
     */
    virtual void doIdleRuns(Cycle len, std::uint64_t count);

    /** Policy hook: @p len consecutive busy cycles. */
    virtual void doActiveRun(Cycle len);

    energy::CycleCounts counts_;

  private:
    /** Throws std::invalid_argument if tick() left an unflushed
     * idle interval. */
    void assertFlushed(const char *call) const;

    Cycle pending_idle_ = 0;
};

/** Never asserts Sleep: idle cycles are all uncontrolled idle. */
class AlwaysActiveController : public SleepController
{
  public:
    std::string name() const override { return "AlwaysActive"; }

  protected:
    void doIdleRun(Cycle len) override;
    void doIdleRuns(Cycle len, std::uint64_t count) override;
};

/** Asserts Sleep on the first cycle of every idle interval. */
class MaxSleepController : public SleepController
{
  public:
    std::string name() const override { return "MaxSleep"; }

  protected:
    void doIdleRun(Cycle len) override;
    void doIdleRuns(Cycle len, std::uint64_t count) override;
};

/**
 * MaxSleep with the transition cost waived: the unachievable lower
 * bound of Section 3.1.
 */
class NoOverheadController : public SleepController
{
  public:
    std::string name() const override { return "NoOverhead"; }

  protected:
    void doIdleRun(Cycle len) override;
    void doIdleRuns(Cycle len, std::uint64_t count) override;
};

/**
 * The GradualSleep design of Section 3.2: the unit is divided into
 * @p num_slices slices fed by a shift register; one more slice enters
 * sleep on each successive idle cycle, and all slices wake together.
 * Counts are fractional (in units of whole-FU cycles/transitions).
 */
class GradualSleepController : public SleepController
{
  public:
    /**
     * @param num_slices Slice count; the paper sets this to the
     * technology's breakeven interval (use
     * energy::breakevenInterval + llround, or the convenience factory
     * makeGradualSleep below).
     */
    explicit GradualSleepController(unsigned num_slices);

    std::string name() const override { return "GradualSleep"; }
    void reset() override;

    unsigned numSlices() const { return slices_; }

  protected:
    void doIdleRun(Cycle len) override;
    void doIdleRuns(Cycle len, std::uint64_t count) override;

  private:
    unsigned slices_;
};

/**
 * Weighted GradualSleep (extension): like GradualSleep but with
 * unequal slice sizes, entering sleep largest-first. This models the
 * paper's Section 6 suggestion of combining GradualSleep with
 * operand-width information (Brooks&Martonosi-style): the high-order
 * bytes of the datapath — usually idle — form a large slice that
 * sleeps on the first idle cycle, while the low-order slices follow.
 * Weights are fractions of the unit's gates and must sum to 1; slice
 * i enters the sleep state at idle cycle i+1.
 */
class WeightedGradualSleepController : public SleepController
{
  public:
    /** @param weights Per-slice gate fractions, sleep order. */
    explicit WeightedGradualSleepController(
        std::vector<double> weights);

    std::string name() const override
    {
        return "WeightedGradualSleep";
    }

    const std::vector<double> &weights() const { return weights_; }

    /**
     * The prefix sums of @p weights: entry i is the fraction of the
     * unit asleep once slice i has transitioned, the last forced to
     * exactly 1. This is the one check of a weight set, shared by
     * the constructor, the registry and the replay kernel: throws
     * std::invalid_argument unless the weights are non-empty,
     * positive and sum to 1 (within 1e-9).
     */
    static std::vector<double>
    asleepAfter(const std::vector<double> &weights);

    /**
     * A 64-bit-datapath default inspired by operand-width studies:
     * the top 32 bits sleep immediately (operands are mostly
     * narrow), then 16, 8, and the busy low byte last.
     */
    static std::vector<double> datapathWeights();

  protected:
    void doIdleRun(Cycle len) override;
    void doIdleRuns(Cycle len, std::uint64_t count) override;

  private:
    std::vector<double> weights_;
    /** Prefix sums: fraction asleep after slice i has transitioned. */
    std::vector<double> asleep_after_;
};

/**
 * Classic timeout policy (extension): idle cycles up to the timeout
 * are uncontrolled; once the run exceeds the timeout the unit
 * transitions to sleep for the remainder. Timeout 0 degenerates to
 * MaxSleep.
 */
class TimeoutController : public SleepController
{
  public:
    explicit TimeoutController(Cycle timeout);

    std::string name() const override;

    Cycle timeout() const { return timeout_; }

  protected:
    void doIdleRun(Cycle len) override;
    void doIdleRuns(Cycle len, std::uint64_t count) override;

  private:
    Cycle timeout_;
};

/**
 * Oracle (extension): knows each idle interval's length when it
 * begins and sleeps immediately iff the interval is at least the
 * supplied breakeven length — the per-interval optimal choice
 * between AlwaysActive and MaxSleep behavior. Requires interval-
 * granularity feeding (idleRun with whole intervals); per-cycle
 * tick(false) calls would deprive it of lookahead and are rejected
 * in favour of correctness (each tick is treated as a length-1 run).
 */
class OracleController : public SleepController
{
  public:
    /** @param breakeven Sleep iff interval length >= breakeven. */
    explicit OracleController(double breakeven);

    std::string name() const override { return "Oracle"; }

    double breakeven() const { return breakeven_; }

  protected:
    void doIdleRun(Cycle len) override;
    void doIdleRuns(Cycle len, std::uint64_t count) override;

  private:
    double breakeven_;
};

/**
 * Adaptive predictor (extension): predicts the next idle interval
 * with an exponentially weighted moving average of past interval
 * lengths; sleeps from the first idle cycle when the prediction is
 * at least the breakeven, otherwise behaves as a timeout-at-breakeven
 * policy. This is the kind of "more complex control strategy" the
 * paper's conclusion argues may not be warranted.
 */
class AdaptiveController : public SleepController
{
  public:
    /**
     * @param breakeven Technology breakeven interval, cycles.
     * @param ewma_weight Weight of the newest interval in the EWMA.
     */
    AdaptiveController(double breakeven, double ewma_weight = 0.25);

    std::string name() const override { return "Adaptive"; }
    void reset() override;

    /**
     * The prediction before any interval: the breakeven, clamped to
     * the largest finite double. An infinite breakeven (sleep never
     * pays off) is then never predicted, so the policy idles
     * uncontrolled like AlwaysActive instead of sleeping on every
     * interval.
     */
    static double initialPrediction(double breakeven);

    double prediction() const { return predicted_; }
    double ewmaWeight() const { return weight_; }

  protected:
    void doIdleRun(Cycle len) override;

  private:
    double breakeven_;
    double weight_;
    double predicted_;
};

/**
 * Owning collection of one controller per policy under study; built
 * from policy specs by PolicyRegistry::makeSet.
 */
using ControllerSet = std::vector<std::unique_ptr<SleepController>>;

} // namespace lsim::sleep

#endif // LSIM_SLEEP_CONTROLLERS_HH
