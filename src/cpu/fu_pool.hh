/**
 * @file
 * Integer functional unit pool with round-robin allocation and
 * per-unit busy/idle tracking.
 *
 * The paper allocates operations to the functional units in round
 * robin fashion and records precise per-FU idle statistics
 * (Section 4). The pool maintains a persistent rotation pointer:
 * each allocation takes the first free unit at or after the pointer
 * and advances it, spreading work evenly so no unit accumulates
 * artificially long idle stretches.
 *
 * Units are fully pipelined: each accepts at most one operation per
 * cycle and is "busy" in exactly the cycles in which it accepts one.
 * Per-FU busy/idle run lengths are forwarded to an optional sink
 * (the energy harness) and to built-in IdleIntervalRecorders
 * (Figure 7).
 */

#ifndef LSIM_CPU_FU_POOL_HH
#define LSIM_CPU_FU_POOL_HH

#include <functional>
#include <vector>

#include "common/types.hh"
#include "sleep/idle_stats.hh"

namespace lsim::cpu
{

/** The integer FU pool. */
class FuPool
{
  public:
    /**
     * Sink receiving maximal per-FU busy/idle runs:
     * (fu index, busy?, run length).
     */
    using RunSink = std::function<void(unsigned, bool, Cycle)>;

    /** @param num_units Integer FU count (1..8). */
    explicit FuPool(unsigned num_units);

    /** Register a run sink (may be empty to disable). */
    void setRunSink(RunSink sink) { sink_ = std::move(sink); }

    /** Start a new cycle: all units begin the cycle free. */
    void beginCycle();

    /**
     * Try to allocate a unit this cycle (round robin).
     * @return the unit index, or -1 if all are busy this cycle.
     */
    int allocate();

    /** Number of units allocated so far this cycle. */
    unsigned allocatedThisCycle() const { return allocated_; }

    /**
     * Close the cycle: fold this cycle's busy bits into the per-FU
     * run-length state, emitting completed runs to the sink and the
     * idle recorders.
     */
    void endCycle();

    /**
     * Account @p cycles cycles in which no unit is allocated, exactly
     * as that many empty beginCycle()/endCycle() pairs would: the
     * core's event skipping credits a stretch of quiet cycles in one
     * call. Must be called between cycles.
     */
    void creditIdle(Cycle cycles);

    /**
     * Flush open runs (end of simulation) into sinks/recorders and
     * finish the idle statistics.
     */
    void finish();

    unsigned numUnits() const { return num_units_; }

    /** Cycles elapsed (beginCycle..endCycle pairs). */
    Cycle cycles() const { return cycles_; }

    /** Busy cycles of unit @p fu. */
    Cycle busyCycles(unsigned fu) const;

    /** Idle statistics of unit @p fu (valid after finish()). */
    const sleep::IdleIntervalRecorder &idleStats(unsigned fu) const;

    /** Utilization of unit @p fu: busy cycles / total cycles. */
    double utilization(unsigned fu) const;

  private:
    struct UnitState
    {
        bool busy_now = false;  ///< allocated this cycle
        bool run_busy = false;  ///< state of the open run
        Cycle run_len = 0;      ///< length of the open run
        Cycle busy_total = 0;
    };

    void closeRun(unsigned fu);

    unsigned num_units_;
    std::vector<UnitState> units_;
    std::vector<sleep::IdleIntervalRecorder> idle_;
    RunSink sink_;
    unsigned rr_ptr_ = 0;
    unsigned allocated_ = 0;
    Cycle cycles_ = 0;
    bool in_cycle_ = false;
};

} // namespace lsim::cpu

#endif // LSIM_CPU_FU_POOL_HH
