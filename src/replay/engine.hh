/**
 * @file
 * Single-pass multi-point replay engine: evaluates every technology
 * point of a sweep cell in one pass over the idle-interval multiset.
 *
 * The scalar reference (api::evaluateProfile) walks a workload's
 * interval multiset once per (technology point) cell — O(points x
 * intervals) work for a p-sweep, the hottest loop in the codebase.
 * This engine restructures that replay around three observations:
 *
 *  1. Most policies are *point-invariant*: an AlwaysActive, MaxSleep
 *     or NoOverhead controller accumulates the identical CycleCounts
 *     at every technology point (only the energy model applied at
 *     the end differs), and a GradualSleep controller depends on the
 *     point only through its slice count, which collides across
 *     nearby points. The engine keeps a bank of accumulators indexed
 *     by (policy, point) but deduplicates them by the exact
 *     controller configuration — compared structurally via
 *     sleep::KernelSpec — so the paper's four policies over a
 *     20-point sweep accumulate ~13 units instead of 80.
 *  2. The interval multiset can be flattened once per workload into
 *     sorted, contiguous length/count arrays (IntervalSet) that every
 *     unit streams over, instead of re-walking a std::map per cell
 *     and re-feeding the evaluator's idle recorder.
 *  3. Every policy is a KernelSpec (the registry maps each policy
 *     spec to one), and every KernelSpec kind has a batch kernel.
 *     For a history-free policy the per-interval accounting is a
 *     closed form of the interval length, so the units that dedup
 *     could NOT collapse — per-point gradual slice counts, timeout
 *     and oracle thresholds — replay as one *batched kernel* pass
 *     per policy kind: a struct-of-arrays accumulator bank filled by
 *     branch-regular, auto-vectorizable array kernels
 *     (replay/kernels.hh) instead of one virtual dispatch per
 *     (unit, length). Adaptive carries an EWMA prediction from run
 *     to run, so its kernel steps each lane through every run in
 *     stream order, a few lanes at a time, with the controller's
 *     exact arithmetic. Adding a policy therefore means four
 *     things: a KernelSpec::Kind, its kernel, its controller (the
 *     scalar reference) and a registry entry.
 *
 * Equivalence contract: each task replays one kernel group over the
 * workload's whole interval stream, so every accumulator receives
 * the exact floating-point operation sequence of the scalar path —
 * activeRun(active_cycles) then idleRuns(len, count) in ascending
 * length order, which the batch kernels replicate expression for
 * expression — and results are bit-identical to
 * api::evaluateProfile for every input and any thread assignment.
 * No equivalence flag guards the kernel path.
 *
 * Parallelism comes from the groups: one per history-free kind, and
 * Adaptive's lanes split into groups of one kernel block (4 to 16
 * lanes, by vector width), so a one-workload sweep still spreads
 * over the pool.
 *
 * The stream each unit reads is the interval multiset in ascending
 * length order. A history-free policy needs only the multiset;
 * Adaptive's EWMA needs each FU's runs in time order, which the
 * profile does not hold (ROADMAP item 1), so it reads the ascending
 * stream too. Its kernel reads no order property of the stream, so
 * a time-ordered stream can replace it without touching the kernel.
 */

#ifndef LSIM_REPLAY_ENGINE_HH
#define LSIM_REPLAY_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "energy/model.hh"
#include "harness/experiment.hh"
#include "replay/kernels.hh"
#include "sleep/accumulator.hh"

namespace lsim::replay
{

/**
 * A workload's idle-interval multiset flattened into sorted,
 * contiguous arrays — the stream every replay unit consumes.
 * Zero-length intervals and zero counts are dropped (mirroring
 * PolicyEvaluator::feedRuns), so `lengths` holds strictly positive,
 * strictly ascending values.
 */
struct IntervalSet
{
    std::vector<Cycle> lengths;          ///< ascending, nonzero
    std::vector<std::uint64_t> counts;   ///< parallel to lengths
    Cycle active_cycles = 0;
    Cycle idle_cycles = 0;               ///< sum of len * count

    /** Number of distinct interval lengths. */
    std::size_t numDistinct() const { return lengths.size(); }

    /** Total cycles fed to every controller (active + idle). */
    Cycle totalCycles() const { return active_cycles + idle_cycles; }

    static IntervalSet fromProfile(const harness::IdleProfile &idle);
};

/** Replay takes no options: every task replays a whole stream. */
struct ReplayOptions
{
    /// Must be 0; kept for perfbench/replica.cc (ROADMAP item 3).
    std::size_t chunk_intervals = 0;
};

/**
 * Replays one workload's IntervalSet at many technology points under
 * registry-named policies, in independent tasks.
 *
 * Usage: construct, run all tasks (any thread assignment; tasks
 * write disjoint state), then finalize() once:
 *
 * @code
 *   replay::MultiPointReplay engine(
 *       replay::IntervalSet::fromProfile(ws.idle), points, keys);
 *   for (std::size_t t = 0; t < engine.numTasks(); ++t)  // or pool
 *       engine.runTask(t);
 *   auto results = engine.finalize();  // [point][policy]
 * @endcode
 */
class MultiPointReplay
{
  public:
    /**
     * @param intervals The workload's flattened interval multiset.
     * @param points Technology points to evaluate (may be empty).
     * @param policy_keys PolicyRegistry specs; empty = the paper's
     *        four policies. Throws std::invalid_argument on unknown
     *        or malformed specs (validated here, before any task).
     * @param options Throws std::invalid_argument on a non-zero
     *        chunk_intervals.
     */
    MultiPointReplay(IntervalSet intervals,
                     std::vector<energy::ModelParams> points,
                     std::vector<std::string> policy_keys,
                     ReplayOptions options = {});

    /**
     * Moves transfer the whole replay; the moved-from engine keeps
     * no usable state and its runTask()/runAll()/finalize() entry
     * points throw std::logic_error instead of silently replaying
     * emptied vectors.
     */
    MultiPointReplay(MultiPointReplay &&other) noexcept;
    MultiPointReplay &operator=(MultiPointReplay &&other) noexcept;

    /**
     * Independent replay tasks, one per batched kernel invocation:
     * one per history-free kind, and one per group of up to
     * kernels::adaptiveBlockLanes() Adaptive lanes (>= 1 unless
     * there are no points).
     */
    std::size_t numTasks() const { return groups_.size(); }

    /**
     * Run task @p index: its kernel group over the whole interval
     * stream. Thread-safe for distinct indices; each task writes
     * only its own group's accumulators.
     */
    void runTask(std::size_t index);

    /** Run every task on the calling thread. */
    void runAll();

    /**
     * Gather each unit's counts and build per-point results, in the
     * exact arithmetic of PolicyEvaluator::results(). Call once, after
     * every task has run; a second call throws std::logic_error.
     *
     * @return results[point][policy], policies in policy-key order.
     */
    std::vector<std::vector<sleep::PolicyResult>> finalize();

    /** Technology points under evaluation. */
    std::size_t numPoints() const { return points_.size(); }

    /** Policies per point. */
    std::size_t numPolicies() const { return policy_keys_.size(); }

    /**
     * Deduplicated accumulator units — the work the engine actually
     * replays. numUnits() <= numPoints() * numPolicies(), with
     * equality only when every policy is point-variant.
     */
    std::size_t numUnits() const { return units_.size(); }

    /** Units replayed through batch kernels: every unit, so this
     * equals numUnits(). */
    std::size_t numKernelUnits() const { return units_.size(); }

    const IntervalSet &intervals() const { return intervals_; }

  private:
    /** One deduplicated (policy-config, point-set) accumulator. */
    struct Unit
    {
        /** The configuration; equal specs share one unit. */
        sleep::KernelSpec spec;

        /** The policy's report name, from its controller. */
        std::string name;

        /** Counts, gathered from the unit's kernel lane by
         * finalize(). */
        energy::CycleCounts counts;
    };

    /** One batched kernel: the units of one policy kind (every one,
     * or one kernel block for Adaptive), one SoA accumulator lane
     * per unit. */
    struct KernelGroup
    {
        kernels::KernelBatch batch;
        std::vector<std::size_t> units; ///< lane -> units_ index
        kernels::AccumulatorBank bank;
    };

    /** Throw std::logic_error when this engine was moved from. */
    void assertUsable(const char *call) const;

    IntervalSet intervals_;
    std::vector<energy::ModelParams> points_;
    std::vector<std::string> policy_keys_;

    std::vector<Unit> units_;
    /** unit_of_[point * numPolicies() + policy] -> units_ index. */
    std::vector<std::size_t> unit_of_;

    /** One per task. */
    std::vector<KernelGroup> groups_;

    bool finalized_ = false;
    bool moved_from_ = false;
};

/**
 * One-shot convenience: replay @p idle at every point in @p points
 * under @p policy_keys on the calling thread.
 *
 * This is the multi-point counterpart of calling
 * api::evaluateProfile once per point; results are bit-identical to
 * that scalar path (see the class contract).
 */
std::vector<std::vector<sleep::PolicyResult>>
replayProfile(const harness::IdleProfile &idle,
              const std::vector<energy::ModelParams> &points,
              const std::vector<std::string> &policy_keys = {});

} // namespace lsim::replay

#endif // LSIM_REPLAY_ENGINE_HH
