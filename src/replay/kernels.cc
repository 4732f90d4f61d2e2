#include "replay/kernels.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
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
        fatal("KernelBatch::addLane: spec '%s' does not match the "
              "batch kind", spec.key().c_str());
    switch (kind_) {
    case Kind::AlwaysActive:
    case Kind::MaxSleep:
    case Kind::NoOverhead:
        break;
    case Kind::Gradual: {
        if (spec.slices == 0)
            fatal("KernelBatch::addLane: gradual slice count 0");
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
            fatal("KernelBatch::addLane: weighted-gradual without "
                  "weights");
        prefix.back() = 1.0; // exact despite rounding, as in the ctor
        weight_sets_.push_back(spec.weights);
        prefix_sets_.push_back(std::move(prefix));
        break;
    }
    case Kind::None:
        fatal("KernelBatch::addLane: Kind::None has no kernel");
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

/** Adaptive lanes per vector: 128 bits, the SSE2 and NEON width. */
constexpr std::size_t kAdaptiveVecLanes = 2;

/** Vectors one block keeps in registers. Each lane's EWMA is a
 * serial multiply-add chain, so more independent chains hide more
 * latency until registers run out: four lanes measured best. */
constexpr std::size_t kAdaptiveBlockVecs = 2;

constexpr std::size_t kAdaptiveBlockLanes =
    kAdaptiveVecLanes * kAdaptiveBlockVecs;

/** kAdaptiveVecLanes lanes as one vector (GCC/Clang vector
 * extension): each operator acts lane by lane with scalar IEEE
 * semantics, and a comparison yields an all-ones or all-zeros
 * integer mask per lane. */
typedef double AdaptiveVec
    __attribute__((vector_size(sizeof(double) * kAdaptiveVecLanes)));
typedef decltype(AdaptiveVec{} < AdaptiveVec{}) AdaptiveMask;

/** Per lane, @p a where @p m is set, else @p b — bit for bit. */
inline AdaptiveVec
blend(AdaptiveMask m, AdaptiveVec a, AdaptiveVec b)
{
    return (AdaptiveVec)(((AdaptiveMask)a & m) | ((AdaptiveMask)b & ~m));
}

/**
 * The block of lanes from @p lane over entries [begin, end): every
 * run of every entry, in stream order, performs AdaptiveController::
 * doIdleRun's operation sequence. The controller's branches become
 * blends, and each field gains exactly what the taken branch adds,
 * or +0.0 — a no-op on the non-negative totals. The per-entry terms
 * (the EWMA's weight * length, the timeout wait, and the transition
 * and sleep of a short prediction) are computed once per entry with
 * the controller's own expressions. The transition increment is
 * short_tr + (sleep_now ? 1 - short_tr : 0) with short_tr 0 or 1:
 * exactly 1.0 or short_tr, without a blend on a mask-or, which GCC
 * lowers to scalar code.
 */
void
adaptiveBlock(const IntervalSet &set, std::size_t begin,
              std::size_t end, std::size_t lane,
              const std::vector<double> &breakevens,
              const std::vector<double> &weights,
              std::vector<double> &predicted, AccumulatorBank &bank)
{
    constexpr std::size_t V = kAdaptiveBlockVecs;
    // A partial last block repeats the last lane and drops the copy.
    const std::size_t last = bank.lanes() - 1;
    const AdaptiveVec zero = {};
    const AdaptiveVec one = zero + 1.0;
    AdaptiveVec be[V], w[V], keep[V], pred[V], ui[V], tr[V], sp[V];
    for (std::size_t v = 0; v < V; ++v) {
        for (std::size_t k = 0; k < kAdaptiveVecLanes; ++k) {
            const std::size_t l =
                std::min(lane + v * kAdaptiveVecLanes + k, last);
            be[v][k] = breakevens[l];
            w[v][k] = weights[l];
            pred[v][k] = predicted[l];
            ui[v][k] = bank.unctrl_idle[l];
            tr[v][k] = bank.transitions[l];
            sp[v][k] = bank.sleep[l];
        }
        keep[v] = one - w[v];
    }
    for (std::size_t i = begin; i < end; ++i) {
        const AdaptiveVec length = // broadcast: 0.0 + x == x
            zero + static_cast<double>(set.lengths[i]);
        AdaptiveVec newest[V], wait[V], short_tr[V], lift_tr[V],
            short_sp[V];
        for (std::size_t v = 0; v < V; ++v) {
            newest[v] = w[v] * length;
            // std::min(length, breakeven)
            wait[v] = blend(be[v] < length, be[v], length);
            const AdaptiveMask past = length > be[v];
            short_tr[v] = blend(past, one, zero);
            lift_tr[v] = one - short_tr[v];
            short_sp[v] = blend(past, length - wait[v], zero);
        }
        for (std::uint64_t r = set.counts[i]; r > 0; --r) {
            for (std::size_t v = 0; v < V; ++v) {
                const AdaptiveMask sleep_now = pred[v] >= be[v];
                ui[v] += blend(sleep_now, zero, wait[v]);
                tr[v] += short_tr[v] + blend(sleep_now, lift_tr[v], zero);
                sp[v] += blend(sleep_now, length, short_sp[v]);
                pred[v] = newest[v] + keep[v] * pred[v];
            }
        }
    }
    for (std::size_t v = 0; v < V; ++v) {
        for (std::size_t k = 0; k < kAdaptiveVecLanes; ++k) {
            const std::size_t l = lane + v * kAdaptiveVecLanes + k;
            if (l > last)
                return;
            predicted[l] = pred[v][k];
            bank.unctrl_idle[l] = ui[v][k];
            bank.transitions[l] = tr[v][k];
            bank.sleep[l] = sp[v][k];
        }
    }
}

void
runAdaptive(const std::vector<double> &breakevens,
            const std::vector<double> &weights, const IntervalSet &set,
            std::size_t begin, std::size_t end, AccumulatorBank &bank)
{
    std::vector<double> predicted;
    for (double be : breakevens)
        predicted.push_back(
            sleep::AdaptiveController::initialPrediction(be));
    for (std::size_t tile = begin; tile < end;
         tile += kAdaptiveTileEntries) {
        const std::size_t tile_end =
            std::min(end, tile + kAdaptiveTileEntries);
        for (std::size_t u = 0; u < bank.lanes();
             u += kAdaptiveBlockLanes)
            adaptiveBlock(set, tile, tile_end, u, breakevens, weights,
                          predicted, bank);
    }
}

} // namespace

void
KernelBatch::run(const IntervalSet &set, std::size_t begin,
                 std::size_t end, bool with_active,
                 AccumulatorBank &bank) const
{
    using Kind = sleep::KernelSpec::Kind;
    if (bank.lanes() != lanes_)
        fatal("KernelBatch::run: bank has %zu lanes, batch %zu",
              bank.lanes(), lanes_);
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
        runAdaptive(breakevens_, ewma_weights_, set, begin, end, bank);
        return;
    case Kind::None:
        break;
    }
    fatal("KernelBatch::run: bad kind %d", static_cast<int>(kind_));
}

} // namespace lsim::replay::kernels
