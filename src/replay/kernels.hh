/**
 * @file
 * Batch replay kernels: one pass fills every lane of a policy kind.
 *
 * The scalar reference makes one virtual idleRuns() call per
 * (controller, distinct interval length). Since every policy is a
 * KernelSpec, the whole replay over the flattened IntervalSet
 * arrays collapses into branch-regular array kernels: one pass over
 * the length/count arrays fills the accumulators of *every*
 * distinct configuration ("lane") of that policy kind at once — the
 * lanes a 20-point sweep's configuration dedup could not collapse
 * (per-point gradual slice counts, timeout and oracle thresholds,
 * adaptive breakevens).
 *
 * Accumulators live in a struct-of-arrays bank, so the per-interval
 * lane loop touches contiguous parallel arrays with no cross-lane
 * dependence — exactly the shape compilers auto-vectorize. Policies
 * whose per-interval branch is a threshold on the (sorted) length
 * array — Timeout, Oracle — are instead partitioned once per lane
 * with a binary search and replayed as two branch-free range loops.
 *
 * Adaptive is the one stateful kind: each lane carries its EWMA
 * prediction from run to run, so its lanes cannot share a pass per
 * interval. Its kernel walks the stream in tiles of stream entries,
 * and within a tile small blocks of lanes hold their prediction and
 * accumulators in vector registers and step every run of every
 * entry, in stream order, with selects in place of the controller's
 * branches. It reads no order property of the stream (no binary
 * search, no skipping within an entry's count), so a time-ordered
 * stream replays through it unchanged.
 *
 * The Adaptive block is one body built once per vector width: 2 x
 * 128 bits (4 lanes; SSE2 or NEON, the only width off x86), 3 x 256
 * bits (12 lanes, AVX2) and 2 x 512 bits (16 lanes, AVX-512F).
 * KernelBatch::run takes the widest the CPU supports, asked once
 * with __builtin_cpu_supports; no option or setting picks it, and
 * every width yields the same bits. The engine groups Adaptive lanes
 * one block per task (adaptiveBlockLanes()). Floating-point
 * contraction is off in every width's body: a fused multiply-add
 * (AVX-512F has one) would round the EWMA update
 * `newest + keep * pred` once where the controller rounds twice.
 *
 * Bit-exactness contract: every kernel performs, per lane and per
 * accumulator field, the exact floating-point operation sequence of
 * the corresponding controller's doIdleRuns() calls in stream order
 * (the scalar path's order) — for Adaptive, doIdleRun() once per
 * run, where a select that leaves a field unchanged adds +0.0 to a
 * non-negative total. Kernel results therefore equal the scalar
 * reference (api::evaluateProfile) to the last bit — verified by
 * test_replay_kernels across randomized interval sets — and the
 * engine needs no equivalence flag on its kernel path.
 */

#ifndef LSIM_REPLAY_KERNELS_HH
#define LSIM_REPLAY_KERNELS_HH

#include <cstddef>
#include <vector>

#include "energy/model.hh"
#include "sleep/kernel_spec.hh"

namespace lsim::replay
{

struct IntervalSet;

namespace kernels
{

class KernelBatch;
struct AccumulatorBank;

namespace detail
{

/**
 * KernelBatch::run, with Adaptive replayed at @p width bits (one of
 * adaptiveWidths(), else std::invalid_argument); every other kind
 * runs exactly as in run(). For tests and bench_replay_perf, which
 * check and time each width.
 */
void runAtWidth(const KernelBatch &batch, unsigned width,
                const IntervalSet &set, AccumulatorBank &bank);

} // namespace detail

/**
 * Struct-of-arrays CycleCounts accumulators: lane i of each array is
 * one distinct policy configuration's running totals.
 */
struct AccumulatorBank
{
    std::vector<double> active;
    std::vector<double> unctrl_idle;
    std::vector<double> sleep;
    std::vector<double> transitions;

    std::size_t lanes() const { return active.size(); }

    /** Size every array to @p n zeroed lanes. */
    void resize(std::size_t n);

    /** Lane @p lane gathered back into an AoS CycleCounts. */
    energy::CycleCounts counts(std::size_t lane) const;
};

/**
 * One batched kernel invocation: every distinct configuration
 * ("lane") of a single policy kind, parameters in SoA layout
 * parallel to the AccumulatorBank lanes.
 */
class KernelBatch
{
  public:
    explicit KernelBatch(sleep::KernelSpec::Kind kind) : kind_(kind) {}

    sleep::KernelSpec::Kind kind() const { return kind_; }

    std::size_t lanes() const { return lanes_; }

    /**
     * Append one configuration; @p spec must be of this batch's
     * kind, a Gradual spec needs slices and a WeightedGradual one
     * weights that sum to 1, or std::invalid_argument is thrown and
     * the batch is unchanged. @return the new lane index.
     */
    std::size_t addLane(const sleep::KernelSpec &spec);

    /**
     * Accumulate the whole of @p set into @p bank (+= semantics;
     * bank lanes parallel this batch's lanes): the activeRun prefix,
     * then every interval in array order. Bit-exact to replaying
     * @p set through a fresh controller of this kind via
     * activeRun()/idleRuns(). Adaptive runs at the last of
     * detail::adaptiveWidths(). Throws std::invalid_argument when
     * @p bank does not have this batch's lane count.
     */
    void run(const IntervalSet &set, AccumulatorBank &bank) const;

  private:
    friend void detail::runAtWidth(const KernelBatch &, unsigned,
                                   const IntervalSet &,
                                   AccumulatorBank &);

    /** run() with Adaptive at @p adaptive_width vector bits. */
    void runAt(unsigned adaptive_width, const IntervalSet &set,
               AccumulatorBank &bank) const;

    sleep::KernelSpec::Kind kind_;
    std::size_t lanes_ = 0;

    std::vector<double> slices_;     ///< Gradual: slice count as double
    /** Gradual per-lane constants for the saturated regime
     * (length >= slices, every slice transitions): the triangle
     * term m*(m-1)/2 at m = n and the whole-run unctrl_idle
     * contribution, precomputed with the controller's expressions. */
    std::vector<double> grad_tri_;
    std::vector<double> grad_ui_;
    double grad_max_n_ = 0.0;        ///< max slice count over lanes
    std::vector<Cycle> timeouts_;    ///< Timeout thresholds
    /** Oracle thresholds, or Adaptive breakevens. */
    std::vector<double> breakevens_;
    std::vector<double> ewma_weights_; ///< Adaptive EWMA weights
    /** WeightedGradual per-lane weights + asleep-after prefix sums
     * (recomputed with the controller constructor's arithmetic). */
    std::vector<std::vector<double>> weight_sets_;
    std::vector<std::vector<double>> prefix_sets_;
};

/** Lanes in one block of the Adaptive kernel KernelBatch::run
 * uses: 4, 12 or 16 at 128, 256 or 512 bits. The engine groups
 * Adaptive lanes in groups of this size. */
std::size_t adaptiveBlockLanes();

namespace detail
{

/** The vector widths, in bits, at which this build and CPU run the
 * Adaptive kernel: 128 first, ascending. KernelBatch::run uses the
 * last. Tests and bench_replay_perf read this; nothing selects a
 * width but the CPU. */
const std::vector<unsigned> &adaptiveWidths();

/** Lanes in one Adaptive block at @p width bits (one of
 * adaptiveWidths(), else std::invalid_argument). */
std::size_t adaptiveBlockLanes(unsigned width);

} // namespace detail

} // namespace kernels

} // namespace lsim::replay

#endif // LSIM_REPLAY_KERNELS_HH
