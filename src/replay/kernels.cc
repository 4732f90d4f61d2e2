#include "replay/kernels.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "replay/engine.hh"
#include "sleep/controllers.hh"

namespace lsim::replay::kernels
{

void
AccumulatorBank::resize(std::size_t n)
{
    active.assign(n, 0.0);
    unctrl_idle.assign(n, 0.0);
    sleep.assign(n, 0.0);
    transitions.assign(n, 0.0);
}

energy::CycleCounts
AccumulatorBank::counts(std::size_t lane) const
{
    energy::CycleCounts c;
    c.active = active.at(lane);
    c.unctrl_idle = unctrl_idle.at(lane);
    c.sleep = sleep.at(lane);
    c.transitions = transitions.at(lane);
    return c;
}

std::size_t
KernelBatch::addLane(const sleep::KernelSpec &spec)
{
    using Kind = sleep::KernelSpec::Kind;
    if (spec.kind != kind_)
        throw std::invalid_argument("KernelBatch::addLane: spec '" +
                                    spec.key() +
                                    "' does not match the batch kind");
    switch (kind_) {
    case Kind::AlwaysActive:
    case Kind::MaxSleep:
    case Kind::NoOverhead:
        break;
    case Kind::Gradual: {
        if (spec.slices == 0)
            throw std::invalid_argument(
                "KernelBatch::addLane: gradual slice count 0");
        const double n = static_cast<double>(spec.slices);
        slices_.push_back(n);
        // Saturated-regime constants, spelled exactly like
        // GradualSleepController::doIdleRun at m == n.
        grad_tri_.push_back(n * (n - 1.0) / 2.0);
        grad_ui_.push_back((n * (n - 1.0) / 2.0) / n);
        grad_max_n_ = std::max(grad_max_n_, n);
        break;
    }
    case Kind::Timeout:
        timeouts_.push_back(spec.timeout);
        break;
    case Kind::Oracle:
        breakevens_.push_back(spec.breakeven);
        break;
    case Kind::Adaptive:
        breakevens_.push_back(spec.breakeven);
        ewma_weights_.push_back(spec.ewma_weight);
        break;
    case Kind::WeightedGradual: {
        // The asleep-after prefix sums, accumulated exactly as the
        // WeightedGradualSleepController constructor does (the
        // doIdleRuns arithmetic reads them).
        std::vector<double> prefix;
        prefix.reserve(spec.weights.size());
        double total = 0.0;
        for (double w : spec.weights) {
            total += w;
            prefix.push_back(total);
        }
        if (prefix.empty())
            throw std::invalid_argument("KernelBatch::addLane: "
                                        "weighted-gradual without weights");
        prefix.back() = 1.0; // exact despite rounding, as in the ctor
        weight_sets_.push_back(spec.weights);
        prefix_sets_.push_back(std::move(prefix));
        break;
    }
    case Kind::None:
        throw std::invalid_argument(
            "KernelBatch::addLane: Kind::None has no kernel");
    }
    return lanes_++;
}

namespace
{

/**
 * The per-interval lane loops below mirror each controller's
 * doIdleRuns() expression for expression — including intermediate
 * rounding — so each lane's accumulator receives the identical
 * floating-point operation sequence the virtual path would produce.
 */

void
runAlwaysActive(const IntervalSet &set, std::size_t begin,
                std::size_t end, AccumulatorBank &bank)
{
    double *__restrict ui = bank.unctrl_idle.data();
    const std::size_t lanes = bank.lanes();
    for (std::size_t i = begin; i < end; ++i) {
        // unctrl_idle += double(len) * double(count)
        const double add = static_cast<double>(set.lengths[i]) *
                           static_cast<double>(set.counts[i]);
        for (std::size_t u = 0; u < lanes; ++u)
            ui[u] += add;
    }
}

void
runMaxSleep(const IntervalSet &set, std::size_t begin,
            std::size_t end, AccumulatorBank &bank)
{
    double *__restrict tr = bank.transitions.data();
    double *__restrict sl = bank.sleep.data();
    const std::size_t lanes = bank.lanes();
    for (std::size_t i = begin; i < end; ++i) {
        // transitions += double(count); sleep += len * count
        const double n = static_cast<double>(set.counts[i]);
        const double add = static_cast<double>(set.lengths[i]) *
                           static_cast<double>(set.counts[i]);
        for (std::size_t u = 0; u < lanes; ++u) {
            tr[u] += n;
            sl[u] += add;
        }
    }
}

void
runNoOverhead(const IntervalSet &set, std::size_t begin,
              std::size_t end, AccumulatorBank &bank)
{
    double *__restrict sl = bank.sleep.data();
    const std::size_t lanes = bank.lanes();
    for (std::size_t i = begin; i < end; ++i) {
        const double add = static_cast<double>(set.lengths[i]) *
                           static_cast<double>(set.counts[i]);
        for (std::size_t u = 0; u < lanes; ++u)
            sl[u] += add;
    }
}

void
runGradual(const std::vector<double> &slices,
           const std::vector<double> &grad_tri,
           const std::vector<double> &grad_ui, double max_n,
           const IntervalSet &set, std::size_t begin,
           std::size_t end, AccumulatorBank &bank)
{
    const double *__restrict sl = slices.data();
    const double *__restrict tri = grad_tri.data();
    const double *__restrict uic = grad_ui.data();
    double *__restrict tr = bank.transitions.data();
    double *__restrict ui = bank.unctrl_idle.data();
    double *__restrict sp = bank.sleep.data();
    const std::size_t lanes = bank.lanes();

    // Once length >= n for every lane, each run saturates the shift
    // register (m == n): the transition and unctrl_idle terms become
    // lane constants, leaving one division per (interval, lane).
    // Lengths ascend, so that regime is a suffix of the range.
    const std::size_t sat = static_cast<std::size_t>(
        std::lower_bound(set.lengths.begin() + begin,
                         set.lengths.begin() + end, max_n,
                         [](Cycle len, double threshold) {
                             return static_cast<double>(len) <
                                    threshold;
                         }) -
        set.lengths.begin());

    // Mixed regime: the full doIdleRun closed form per lane.
    for (std::size_t i = begin; i < sat; ++i) {
        const double length = static_cast<double>(set.lengths[i]);
        const double cnt = static_cast<double>(set.counts[i]);
        // Lane-independent SoA updates: this loop vectorizes across
        // configurations while each lane keeps the scalar op order.
        for (std::size_t u = 0; u < lanes; ++u) {
            const double n = sl[u];
            const double m = std::min(length, n);
            // doIdleRun's closed-form per-run contributions.
            const double run_tr = m / n;
            const double run_ui =
                (m * (m - 1.0) / 2.0) / n + (n - m) / n * length;
            const double run_sp =
                (m * length - m * (m - 1.0) / 2.0) / n;
            // doIdleRuns' before/(after - before)*count rescaling,
            // intermediate roundings included.
            const double t0 = tr[u] + run_tr;
            tr[u] = tr[u] + (t0 - tr[u]) * cnt;
            const double u0 = ui[u] + run_ui;
            ui[u] = ui[u] + (u0 - ui[u]) * cnt;
            const double s0 = sp[u] + run_sp;
            sp[u] = sp[u] + (s0 - sp[u]) * cnt;
        }
    }

    // Saturated regime: m == n exactly, so run_tr == n/n == 1.0,
    // run_ui == (n*(n-1)/2)/n + 0.0 == the precomputed lane
    // constant, and only run_sp still divides.
    for (std::size_t i = sat; i < end; ++i) {
        const double length = static_cast<double>(set.lengths[i]);
        const double cnt = static_cast<double>(set.counts[i]);
        // Per-field lane loops keep each loop narrow enough for the
        // vectorizer; each field's op sequence is unchanged.
        for (std::size_t u = 0; u < lanes; ++u) {
            const double trv = tr[u];
            const double t0 = trv + 1.0;
            tr[u] = trv + (t0 - trv) * cnt;
        }
        for (std::size_t u = 0; u < lanes; ++u) {
            const double uiv = ui[u];
            const double u0 = uiv + uic[u];
            ui[u] = uiv + (u0 - uiv) * cnt;
        }
        for (std::size_t u = 0; u < lanes; ++u) {
            const double n = sl[u];
            const double run_sp = (n * length - tri[u]) / n;
            const double spv = sp[u];
            const double s0 = spv + run_sp;
            sp[u] = spv + (s0 - spv) * cnt;
        }
    }
}

void
runWeightedGradual(const std::vector<std::vector<double>> &weights,
                   const std::vector<std::vector<double>> &prefixes,
                   const IntervalSet &set, std::size_t begin,
                   std::size_t end, AccumulatorBank &bank)
{
    for (std::size_t u = 0; u < bank.lanes(); ++u) {
        const std::vector<double> &w = weights[u];
        const std::vector<double> &pre = prefixes[u];
        double tr = bank.transitions[u];
        double ui = bank.unctrl_idle[u];
        double sp = bank.sleep[u];
        for (std::size_t i = begin; i < end; ++i) {
            const Cycle len = set.lengths[i];
            const double n = static_cast<double>(set.counts[i]);
            const double length = static_cast<double>(len);
            const std::size_t m = std::min<std::size_t>(
                w.size(), static_cast<std::size_t>(len));
            double trans = 0.0, uival = 0.0, sleep = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                const double wj = w[j];
                trans += wj;
                uival += wj * static_cast<double>(j);
                sleep += wj * (length - static_cast<double>(j));
            }
            const double awake = 1.0 - (m > 0 ? pre[m - 1] : 0.0);
            uival += awake * length;
            tr += trans * n;
            ui += uival * n;
            sp += sleep * n;
        }
        bank.transitions[u] = tr;
        bank.unctrl_idle[u] = ui;
        bank.sleep[u] = sp;
    }
}

void
runTimeout(const std::vector<Cycle> &timeouts, const IntervalSet &set,
           std::size_t begin, std::size_t end, AccumulatorBank &bank)
{
    const auto first = set.lengths.begin();
    for (std::size_t u = 0; u < bank.lanes(); ++u) {
        const Cycle to = timeouts[u];
        const double wait = static_cast<double>(to);
        // Lengths ascend, so "len > timeout" splits the range once.
        const std::size_t split = static_cast<std::size_t>(
            std::upper_bound(first + begin, first + end, to) - first);
        double ui = bank.unctrl_idle[u];
        double tr = bank.transitions[u];
        double sp = bank.sleep[u];
        // len <= timeout: the whole run idles uncontrolled.
        for (std::size_t i = begin; i < split; ++i)
            ui += static_cast<double>(set.lengths[i]) *
                  static_cast<double>(set.counts[i]);
        // len > timeout: wait, one transition, sleep the remainder.
        for (std::size_t i = split; i < end; ++i) {
            const double n = static_cast<double>(set.counts[i]);
            const double length =
                static_cast<double>(set.lengths[i]);
            ui += wait * n;
            tr += n;
            sp += (length - wait) * n;
        }
        bank.unctrl_idle[u] = ui;
        bank.transitions[u] = tr;
        bank.sleep[u] = sp;
    }
}

void
runOracle(const std::vector<double> &breakevens,
          const IntervalSet &set, std::size_t begin, std::size_t end,
          AccumulatorBank &bank)
{
    const auto first = set.lengths.begin();
    for (std::size_t u = 0; u < bank.lanes(); ++u) {
        const double be = breakevens[u];
        // First length with double(len) >= breakeven (ascending).
        const std::size_t split = static_cast<std::size_t>(
            std::lower_bound(first + begin, first + end, be,
                             [](Cycle len, double threshold) {
                                 return static_cast<double>(len) <
                                        threshold;
                             }) -
            first);
        double ui = bank.unctrl_idle[u];
        double tr = bank.transitions[u];
        double sp = bank.sleep[u];
        for (std::size_t i = begin; i < split; ++i)
            ui += static_cast<double>(set.lengths[i]) *
                  static_cast<double>(set.counts[i]);
        for (std::size_t i = split; i < end; ++i) {
            const double n = static_cast<double>(set.counts[i]);
            tr += n;
            sp += static_cast<double>(set.lengths[i]) * n;
        }
        bank.unctrl_idle[u] = ui;
        bank.transitions[u] = tr;
        bank.sleep[u] = sp;
    }
}

/** Stream entries per Adaptive tile: a tile's lengths and counts
 * stay in L1 while every lane block walks it (1,024 runs on a
 * time-ordered stream of one run per entry). */
constexpr std::size_t kAdaptiveTileEntries = 1024;

/** One Adaptive replay: the stream range, and every lane's
 * parameters, running prediction and accumulators. */
struct AdaptiveRun
{
    const IntervalSet &set;
    std::size_t begin;
    std::size_t end;
    const std::vector<double> &breakevens;
    const std::vector<double> &weights;
    std::vector<double> &predicted;
    AccumulatorBank &bank;
};

/**
 * A block shape: V vectors of type Vec, a GCC/Clang vector of
 * doubles. Each operator acts lane by lane with scalar IEEE
 * semantics, a comparison yields an all-ones or all-zeros integer
 * mask per lane, and `mask ? a : b` picks a or b per lane, bit for
 * bit. Each lane's EWMA is a serial multiply-add chain, so more
 * vectors per block hide more latency, until registers run out.
 */
template <typename Vec, std::size_t V>
struct AdaptiveShape
{
    using Vector = Vec;
    static constexpr std::size_t vecs = V;
    static constexpr std::size_t lanes = V * (sizeof(Vec) / sizeof(double));
    static constexpr unsigned bits = 8 * sizeof(Vec);
};

/** Lanes [lane, lane + Shape::lanes) of @p src into @p out; a lane
 * past @p last, in a partial last block, repeats lane @p last. */
template <typename Shape>
[[gnu::always_inline]] inline void
loadLanes(typename Shape::Vector (&out)[Shape::vecs],
          const std::vector<double> &src, std::size_t lane,
          std::size_t last)
{
    double tmp[Shape::lanes];
    for (std::size_t j = 0; j < Shape::lanes; ++j)
        tmp[j] = src[std::min(lane + j, last)];
    std::memcpy(out, tmp, sizeof tmp);
}

/** @p in back into lanes [lane, lane + Shape::lanes) of @p dst,
 * dropping any lane past @p last. */
template <typename Shape>
[[gnu::always_inline]] inline void
storeLanes(const typename Shape::Vector (&in)[Shape::vecs],
           std::vector<double> &dst, std::size_t lane, std::size_t last)
{
    double tmp[Shape::lanes];
    std::memcpy(tmp, in, sizeof tmp);
    for (std::size_t j = 0; j < Shape::lanes && lane + j <= last; ++j)
        dst[lane + j] = tmp[j];
}

/**
 * The block of lanes from @p lane over entries [begin, end): every
 * run of every entry, in stream order, performs AdaptiveController::
 * doIdleRun's operation sequence. The controller's branches become
 * selects, and each field gains exactly what the taken branch adds,
 * or +0.0 — a no-op on the non-negative totals. The per-entry terms
 * (the EWMA's weight * length, the timeout wait, and the transition
 * and sleep of a short prediction) are computed once per entry with
 * the controller's own expressions. The transition increment is
 * short_tr + (sleep_now ? 1 - short_tr : 0) with short_tr 0 or 1:
 * exactly 1.0 or short_tr, without a select on a mask-or, which GCC
 * lowers to scalar code.
 *
 * Always inlined and passed no vector, so no vector crosses a call:
 * each shape compiles inside its width's wrapper, for that
 * wrapper's target and under its floating-point settings.
 */
template <typename Shape>
[[gnu::always_inline]] inline void
adaptiveBlock(const AdaptiveRun &run, std::size_t begin,
              std::size_t end, std::size_t lane)
{
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
    using Vec = typename Shape::Vector;
    constexpr std::size_t V = Shape::vecs;
    // A partial last block repeats the last lane and drops the copy.
    const std::size_t last = run.bank.lanes() - 1;
    const Vec zero = {};
    const Vec one = zero + 1.0;
    Vec be[V], w[V], keep[V], pred[V], ui[V], tr[V], sp[V];
    loadLanes<Shape>(be, run.breakevens, lane, last);
    loadLanes<Shape>(w, run.weights, lane, last);
    loadLanes<Shape>(pred, run.predicted, lane, last);
    loadLanes<Shape>(ui, run.bank.unctrl_idle, lane, last);
    loadLanes<Shape>(tr, run.bank.transitions, lane, last);
    loadLanes<Shape>(sp, run.bank.sleep, lane, last);
    for (std::size_t v = 0; v < V; ++v)
        keep[v] = one - w[v];
    // The vector loops below are unrolled by pragma: left to GCC's
    // -O2 heuristics, the block's arrays stay in memory, not
    // registers.
    for (std::size_t i = begin; i < end; ++i) {
        const Vec length = // broadcast: 0.0 + x == x
            zero + static_cast<double>(run.set.lengths[i]);
        Vec newest[V], wait[V], short_tr[V], lift_tr[V], short_sp[V];
#pragma GCC unroll 4
        for (std::size_t v = 0; v < V; ++v) {
            newest[v] = w[v] * length;
            // std::min(length, breakeven)
            wait[v] = be[v] < length ? be[v] : length;
            const auto past = length > be[v];
            // past & 1.0, not `past ? one : zero`: GCC 12 lowers that
            // select to scalar code at 512 bits.
            short_tr[v] = (Vec)(past & (decltype(past))one);
            lift_tr[v] = one - short_tr[v];
            short_sp[v] = past ? length - wait[v] : zero;
        }
        for (std::uint64_t r = run.set.counts[i]; r > 0; --r) {
#pragma GCC unroll 4
            for (std::size_t v = 0; v < V; ++v) {
                const auto sleep_now = pred[v] >= be[v];
                ui[v] += sleep_now ? zero : wait[v];
                tr[v] += short_tr[v] + (sleep_now ? lift_tr[v] : zero);
                sp[v] += sleep_now ? length : short_sp[v];
                pred[v] = newest[v] + keep[v] * pred[v];
            }
        }
    }
    storeLanes<Shape>(pred, run.predicted, lane, last);
    storeLanes<Shape>(ui, run.bank.unctrl_idle, lane, last);
    storeLanes<Shape>(tr, run.bank.transitions, lane, last);
    storeLanes<Shape>(sp, run.bank.sleep, lane, last);
}

/** Every tile of the range, every block of lanes, in one shape. */
template <typename Shape>
[[gnu::always_inline]] inline void
adaptiveTiles(const AdaptiveRun &run)
{
    for (std::size_t tile = run.begin; tile < run.end;
         tile += kAdaptiveTileEntries) {
        const std::size_t tile_end =
            std::min(run.end, tile + kAdaptiveTileEntries);
        for (std::size_t u = 0; u < run.bank.lanes(); u += Shape::lanes)
            adaptiveBlock<Shape>(run, tile, tile_end, u);
    }
}

/*
 * One wrapper per width. Each keeps `newest + keep * pred` at two
 * roundings, as in AdaptiveController. GCC fuses a multiply and an
 * add into one fused multiply-add (one rounding) wherever the target
 * has one — AVX-512F does, and -ffp-contract=fast is GCC's C++
 * default. The build flags cannot turn that off for every build of
 * src/, so the source does: the optimize attribute below for GCC,
 * and the pragma in adaptiveBlock for Clang. A 1-ulp prediction
 * rarely flips a sleep decision, so besides a test built to flip
 * one, CI checks the compiled kernels for fused multiply-adds.
 */
#if defined(__GNUC__) && !defined(__clang__)
#define LSIM_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define LSIM_NO_FP_CONTRACT
#endif

typedef double AdaptiveVec128 __attribute__((vector_size(16)));

/** 2 x 128 bits, 4 lanes: the portable baseline (SSE2, NEON), the
 * only width off x86. */
using AdaptiveShape128 = AdaptiveShape<AdaptiveVec128, 2>;

LSIM_NO_FP_CONTRACT void
adaptive128(const AdaptiveRun &run)
{
    adaptiveTiles<AdaptiveShape128>(run);
}

#if defined(__x86_64__) || defined(__i386__)
typedef double AdaptiveVec256 __attribute__((vector_size(32)));
typedef double AdaptiveVec512 __attribute__((vector_size(64)));

/*
 * Measured single-thread on 27 warm_grid-shaped profiles x 34 lanes
 * (gcc 12, AVX-512 Xeon): 3 x 256 bits beat 2 x 256 by 15-20%; one
 * 512-bit vector is latency-bound, and 3 x 512 gained under 10% over
 * 2 x 512 while wasting more lanes in a small sweep's partial last
 * block.
 */

/** 3 x 256 bits, 12 lanes. */
using AdaptiveShape256 = AdaptiveShape<AdaptiveVec256, 3>;

/** 2 x 512 bits, 16 lanes. */
using AdaptiveShape512 = AdaptiveShape<AdaptiveVec512, 2>;

__attribute__((target("avx2"))) LSIM_NO_FP_CONTRACT void
adaptive256(const AdaptiveRun &run)
{
    adaptiveTiles<AdaptiveShape256>(run);
}

__attribute__((target("avx512f"))) LSIM_NO_FP_CONTRACT void
adaptive512(const AdaptiveRun &run)
{
    adaptiveTiles<AdaptiveShape512>(run);
}
#endif

#undef LSIM_NO_FP_CONTRACT

/** The Adaptive kernel at one vector width. */
struct AdaptiveKernel
{
    unsigned width;           ///< vector bits
    std::size_t block_lanes;  ///< lanes one block holds
    void (*replay)(const AdaptiveRun &);
};

template <typename Shape>
AdaptiveKernel
adaptiveKernel(void (*replay)(const AdaptiveRun &))
{
    return {Shape::bits, Shape::lanes, replay};
}

/** The Adaptive kernels this build and CPU run, narrowest first;
 * the CPU is asked once. */
const std::vector<AdaptiveKernel> &
adaptiveKernels()
{
    static const std::vector<AdaptiveKernel> kernels = [] {
        std::vector<AdaptiveKernel> out{
            adaptiveKernel<AdaptiveShape128>(adaptive128)};
#if defined(__x86_64__) || defined(__i386__)
        if (__builtin_cpu_supports("avx2"))
            out.push_back(adaptiveKernel<AdaptiveShape256>(adaptive256));
        if (__builtin_cpu_supports("avx512f"))
            out.push_back(adaptiveKernel<AdaptiveShape512>(adaptive512));
#endif
        return out;
    }();
    return kernels;
}

const AdaptiveKernel &
adaptiveKernelAt(unsigned width)
{
    for (const AdaptiveKernel &k : adaptiveKernels())
        if (k.width == width)
            return k;
    throw std::invalid_argument("Adaptive kernel: no " +
                                std::to_string(width) +
                                "-bit kernel on this build and CPU");
}

void
runAdaptive(const AdaptiveKernel &kernel,
            const std::vector<double> &breakevens,
            const std::vector<double> &weights, const IntervalSet &set,
            std::size_t begin, std::size_t end, AccumulatorBank &bank)
{
    std::vector<double> predicted;
    for (double be : breakevens)
        predicted.push_back(
            sleep::AdaptiveController::initialPrediction(be));
    kernel.replay(
        AdaptiveRun{set, begin, end, breakevens, weights, predicted, bank});
}

} // namespace

void
KernelBatch::run(const IntervalSet &set, std::size_t begin,
                 std::size_t end, bool with_active,
                 AccumulatorBank &bank) const
{
    runAt(adaptiveKernels().back().width, set, begin, end, with_active,
          bank);
}

void
KernelBatch::runAt(unsigned adaptive_width, const IntervalSet &set,
                   std::size_t begin, std::size_t end, bool with_active,
                   AccumulatorBank &bank) const
{
    using Kind = sleep::KernelSpec::Kind;
    if (bank.lanes() != lanes_)
        throw std::invalid_argument(
            "KernelBatch::run: bank has " + std::to_string(bank.lanes()) +
            " lanes, batch " + std::to_string(lanes_));
    // The scalar call sequence opens with the active total (skipped
    // when zero), exactly like MultiPointReplay::replayRange.
    if (with_active && set.active_cycles > 0) {
        const double active = static_cast<double>(set.active_cycles);
        for (std::size_t u = 0; u < lanes_; ++u)
            bank.active[u] += active;
    }
    switch (kind_) {
    case Kind::AlwaysActive:
        runAlwaysActive(set, begin, end, bank);
        return;
    case Kind::MaxSleep:
        runMaxSleep(set, begin, end, bank);
        return;
    case Kind::NoOverhead:
        runNoOverhead(set, begin, end, bank);
        return;
    case Kind::Gradual:
        runGradual(slices_, grad_tri_, grad_ui_, grad_max_n_, set,
                   begin, end, bank);
        return;
    case Kind::WeightedGradual:
        runWeightedGradual(weight_sets_, prefix_sets_, set, begin,
                           end, bank);
        return;
    case Kind::Timeout:
        runTimeout(timeouts_, set, begin, end, bank);
        return;
    case Kind::Oracle:
        runOracle(breakevens_, set, begin, end, bank);
        return;
    case Kind::Adaptive:
        runAdaptive(adaptiveKernelAt(adaptive_width), breakevens_,
                    ewma_weights_, set, begin, end, bank);
        return;
    case Kind::None:
        break;
    }
    // addLane admits no Kind::None lane, so no batch gets here.
    throw std::logic_error("KernelBatch::run: bad kind " +
                           std::to_string(static_cast<int>(kind_)));
}

std::size_t
adaptiveBlockLanes()
{
    return adaptiveKernels().back().block_lanes;
}

namespace detail
{

const std::vector<unsigned> &
adaptiveWidths()
{
    static const std::vector<unsigned> widths = [] {
        std::vector<unsigned> out;
        for (const AdaptiveKernel &k : adaptiveKernels())
            out.push_back(k.width);
        return out;
    }();
    return widths;
}

std::size_t
adaptiveBlockLanes(unsigned width)
{
    return adaptiveKernelAt(width).block_lanes;
}

void
runAtWidth(const KernelBatch &batch, unsigned width,
           const IntervalSet &set, std::size_t begin, std::size_t end,
           bool with_active, AccumulatorBank &bank)
{
    batch.runAt(width, set, begin, end, with_active, bank);
}

} // namespace detail

} // namespace lsim::replay::kernels
