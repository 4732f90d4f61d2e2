/**
 * @file
 * Idle-interval statistics for functional units (the paper's
 * Figure 7). Consumes a per-cycle busy/idle stream and records the
 * distribution of idle-interval lengths, weighted by the cycles spent
 * in intervals of each length, in power-of-two buckets with the
 * paper's 8192-cycle clamp.
 */

#ifndef LSIM_SLEEP_IDLE_STATS_HH
#define LSIM_SLEEP_IDLE_STATS_HH

#include "common/stats.hh"
#include "common/types.hh"

namespace lsim::sleep
{

/**
 * Records idle-interval structure from a busy-bit stream.
 *
 * "Fraction of total time the ALU is idle in intervals of length
 * [2^i, 2^(i+1))" is histogram weight / total cycles, matching the
 * y-axis of Figure 7.
 */
class IdleIntervalRecorder
{
  public:
    /** @param clamp Intervals >= clamp accumulate in the last bucket. */
    explicit IdleIntervalRecorder(std::uint64_t clamp = 8192);

    /** Feed one cycle's busy bit. */
    void tick(bool busy);

    /** Feed @p len consecutive idle cycles. */
    void idleRun(Cycle len);

    /**
     * Record @p count complete, separate idle intervals of length
     * @p len (bulk replay path; each interval is implicitly closed
     * by activity).
     */
    void idleRuns(Cycle len, std::uint64_t count);

    /** Feed @p len consecutive busy cycles. */
    void activeRun(Cycle len);

    /**
     * Close out a trailing idle run (call once at end of simulation;
     * further ticks are allowed and start fresh runs).
     */
    void finish();

    /** Total cycles observed. */
    Cycle totalCycles() const { return total_; }

    /** Total idle cycles observed (including any open run). */
    Cycle idleCycles() const { return idle_ + run_; }

    /** Fraction of all cycles that were idle. */
    double idleFraction() const;

    /** Number of completed idle intervals. */
    std::uint64_t numIntervals() const { return intervals_; }

    /** Mean completed idle-interval length (0 if none). */
    double meanInterval() const;

    /**
     * Histogram of idle cycles by interval length (weight = cycles
     * spent in intervals of that bucket). Call finish() first to
     * include a trailing open interval.
     */
    const stats::Log2Histogram &histogram() const { return hist_; }

    /** Per-interval-length statistics (lengths as samples). */
    const stats::Scalar &intervalLengths() const { return lengths_; }

    /** Reset to the empty state. */
    void reset();

  private:
    void closeRun();

    stats::Log2Histogram hist_;
    stats::Scalar lengths_;
    Cycle total_ = 0;
    Cycle idle_ = 0;
    Cycle run_ = 0; ///< length of the currently open idle run
    std::uint64_t intervals_ = 0;
};

// The run methods are defined here so that the functional-unit pool
// inlines them.

inline void
IdleIntervalRecorder::tick(bool busy)
{
    ++total_;
    if (busy) {
        closeRun();
    } else {
        ++run_;
    }
}

inline void
IdleIntervalRecorder::idleRun(Cycle len)
{
    total_ += len;
    run_ += len;
}

inline void
IdleIntervalRecorder::activeRun(Cycle len)
{
    if (len == 0)
        return;
    closeRun();
    total_ += len;
}

inline void
IdleIntervalRecorder::closeRun()
{
    if (run_ == 0)
        return;
    hist_.sample(run_, static_cast<double>(run_));
    lengths_.sample(static_cast<double>(run_));
    idle_ += run_;
    ++intervals_;
    run_ = 0;
}

} // namespace lsim::sleep

#endif // LSIM_SLEEP_IDLE_STATS_HH
