/**
 * @file
 * Single-pass multi-point replay engine: evaluates every technology
 * point of a sweep cell in one pass over the idle-interval multiset.
 *
 * The scalar reference (api::evaluateProfile) walks a workload's
 * interval multiset once per (technology point) cell — O(points x
 * intervals) work for a p-sweep, the hottest loop in the codebase.
 * This engine restructures that replay around four observations:
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
 *  3. Every controller reporting a KernelSpec has a batch kernel.
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
 *     exact arithmetic. This is the default;
 *     ReplayOptions::use_kernels = false restores per-unit virtual
 *     dispatch for equivalence testing and benchmarking.
 *  4. For very long simulations the sorted interval array can be
 *     sharded into chunks aligned to Log2Histogram bucket boundaries;
 *     chunks of history-free units replay into independent partial
 *     accumulators (a fresh controller or kernel bank per chunk)
 *     that are merged in chunk order, so phase 2 parallelizes below
 *     cell granularity yet stays deterministic for any thread count.
 *
 * Equivalence contract: with a single chunk (the default below the
 * auto-shard threshold) every accumulator receives the exact
 * floating-point operation sequence of the scalar path —
 * activeRun(active_cycles) then idleRuns(len, count) in ascending
 * length order, whether executed through the controller virtuals or
 * the batch kernels (which replicate the controllers' arithmetic
 * expression for expression) — so results are bit-identical to
 * api::evaluateProfile either way, and no equivalence flag guards
 * the kernel path. With multiple chunks the per-chunk partial
 * sums are merged in chunk order; the reduction order differs, so
 * results agree only to ~1e-12 relative (tested), which is why
 * sharding engages only above the threshold or on request.
 *
 * Adaptive is never sharded: a chunk would restart its prediction.
 * Its kernel lanes instead split into groups of one kernel block
 * (4 to 16 lanes, by vector width), one whole-stream task each, so
 * a one-workload sweep still spreads over the pool. External
 * registrations that do not override SleepController::kernelSpec()
 * can be neither kernelized nor sharded: they replay the whole
 * interval set sequentially per (point, policy), as their own
 * parallel task (the fallback path).
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
#include <memory>
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

/** Tuning knobs for one engine instance. */
struct ReplayOptions
{
    /**
     * Maximum distinct interval lengths per phase-2 chunk. 0 = auto:
     * a single chunk below auto_shard_threshold distinct lengths
     * (keeping results bit-identical to the scalar path), chunks of
     * auto_chunk_intervals above it.
     */
    std::size_t chunk_intervals = 0;

    /**
     * Replay every policy with a KernelSpec through the batch
     * kernels (bit-exact; the default). false restores the per-unit
     * virtual-dispatch replay — same results, kept for equivalence
     * tests and the kernel-vs-virtual benchmark dimension.
     */
    bool use_kernels = true;

    /** Auto mode shards only above this many distinct lengths. */
    static constexpr std::size_t auto_shard_threshold = 4096;

    /** Chunk size auto mode uses once it shards. */
    static constexpr std::size_t auto_chunk_intervals = 1024;
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
     */
    MultiPointReplay(IntervalSet intervals,
                     std::vector<energy::ModelParams> points,
                     std::vector<std::string> policy_keys,
                     ReplayOptions options = {});

    /**
     * Moves transfer the whole replay; the moved-from engine keeps
     * no usable state and its runTask()/runAll()/finalize() entry
     * points fatal() instead of silently replaying emptied vectors.
     */
    MultiPointReplay(MultiPointReplay &&other) noexcept;
    MultiPointReplay &operator=(MultiPointReplay &&other) noexcept;

    /** Independent replay tasks (>= 1 unless there are no points). */
    std::size_t numTasks() const { return tasks_.size(); }

    /**
     * Run task @p index. Thread-safe for distinct indices; each task
     * writes only its own accumulator slot.
     */
    void runTask(std::size_t index);

    /** Run every task on the calling thread. */
    void runAll();

    /**
     * Merge chunk partials and build per-point results, in the exact
     * arithmetic of PolicyEvaluator::results(). Call once, after
     * every task has run.
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

    /** Batched kernel invocations: one per history-free kind, and
     * one per group of up to kernels::adaptiveBlockLanes() Adaptive
     * lanes. */
    std::size_t numKernelGroups() const { return groups_.size(); }

    /** Units replayed through batch kernels (vs the fallback). */
    std::size_t numKernelUnits() const;

    /** Chunks the interval stream was sharded into (>= 1). */
    std::size_t numChunks() const { return num_chunks_; }

    const IntervalSet &intervals() const { return intervals_; }

  private:
    /** One deduplicated (policy-config, point-set) accumulator. */
    struct Unit
    {
        /** Prototype controller; supplies name(), and accumulates
         * directly for unchunked fallback units. */
        std::unique_ptr<sleep::SleepController> proto;

        /** Self-classification; equal specs share one unit. Units
         * with a kernel replay (by default) through batch kernels,
         * historyFree() ones may shard, and Kind::None units take
         * the sequential fallback path. */
        sleep::KernelSpec spec;

        /** True when a kernel group lane accumulates this unit. */
        bool kernel = false;

        /** Per-chunk partial counts (chunk order), when the unit is
         * sharded on the fallback/virtual path. */
        std::vector<energy::CycleCounts> partials;

        /** Merged counts, filled by finalize(). */
        energy::CycleCounts counts;
    };

    /** One batched kernel: the kernelized units of one policy kind
     * (every one, or one kernel block for Adaptive), one SoA
     * accumulator lane per unit. */
    struct KernelGroup
    {
        kernels::KernelBatch batch;
        std::vector<std::size_t> units; ///< lane -> units_ index
        kernels::AccumulatorBank bank;  ///< unchunked accumulators
        /** Per-chunk partial banks (chunk order), when sharded. */
        std::vector<kernels::AccumulatorBank> partial_banks;
    };

    /** A schedulable piece: one chunk (or the whole stream) of one
     * unit or kernel group. chunk == npos spans the full set. */
    struct Task
    {
        bool kernel = false; ///< index addresses groups_, not units_
        std::size_t index = 0;
        std::size_t chunk = npos;
        static constexpr std::size_t npos = ~std::size_t{0};
    };

    /** Feed [begin, end) of the interval arrays into a controller,
     * with the activeRun prefix when @p with_active. */
    void replayRange(sleep::SleepController &ctrl, std::size_t begin,
                     std::size_t end, bool with_active) const;

    /** fatal() when this engine was moved from. */
    void assertUsable(const char *call) const;

    IntervalSet intervals_;
    std::vector<energy::ModelParams> points_;
    std::vector<std::string> policy_keys_;

    std::vector<Unit> units_;
    /** unit_of_[point * numPolicies() + policy] -> units_ index. */
    std::vector<std::size_t> unit_of_;

    std::vector<KernelGroup> groups_;

    /** Chunk boundaries into the interval arrays: chunk c covers
     * [chunk_bounds_[c], chunk_bounds_[c + 1]). */
    std::vector<std::size_t> chunk_bounds_;
    std::size_t num_chunks_ = 1;

    std::vector<Task> tasks_;
    bool finalized_ = false;
    bool moved_from_ = false;
};

/**
 * One-shot convenience: replay @p idle at every point in @p points
 * under @p policy_keys on the calling thread.
 *
 * This is the multi-point counterpart of calling
 * api::evaluateProfile once per point; results are bit-identical to
 * that scalar path (single chunk — see the class contract).
 */
std::vector<std::vector<sleep::PolicyResult>>
replayProfile(const harness::IdleProfile &idle,
              const std::vector<energy::ModelParams> &points,
              const std::vector<std::string> &policy_keys = {},
              ReplayOptions options = {});

} // namespace lsim::replay

#endif // LSIM_REPLAY_ENGINE_HH
