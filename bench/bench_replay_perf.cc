/**
 * @file
 * Phase-2 replay performance across three dimensions:
 *
 *  1. Workload grids — scalar per-cell replay (one pass over the
 *     interval multiset per technology point, the pre-engine
 *     SweepRunner hot loop) versus the multi-point engine across
 *     grid sizes on simulated Table 3 workloads. The reference grid
 *     is 20 technology points x 4 workloads under the paper's four
 *     policies; CI gates on the engine being at least --min-speedup
 *     times the scalar path there. Each side's time is the median
 *     of five batches of at least 20 ms, run alternately with the
 *     other side's batches.
 *  2. Dense grid — the same scalar-vs-engine comparison on a dense
 *     synthetic 20-point grid whose interval multiset is rich
 *     enough (kDenseDistinct distinct lengths) that replay work,
 *     not per-sweep setup, dominates — the regime the batch kernels
 *     exist for. The paper policies' row is recorded for the
 *     trajectory gate (tools/bench_trend.py); a second row replays
 *     `adaptive` alone (its stateful lane kernel) and is reported,
 *     not gated.
 *  3. Pooled replay — api::detail::ReplayDriver replaying the render
 *     dimension's warm_grid-shaped sweep (nine Table 3 profiles x 34
 *     points x seven policies, one task per workload's kernel group)
 *     at 1, 2 and 4 threads on a running ThreadPool, as the serve
 *     daemon replays. Each row's cells must equal the 1-thread
 *     row's bit for bit before it posts a time. CI gates the best
 *     multi-thread speedup with --min-threaded-speedup.
 *  4. Spool daemon — end-to-end `lsim serve` request latency
 *     through a temp spool: cold (first request simulates) vs warm
 *     (shared store + persistent pool, pure replay), plus the warm
 *     latency of the same request through the daemon's AF_UNIX
 *     socket front door (a full submit-and-wait round trip,
 *     including protocol framing and the completion board).
 *     Reported and recorded for the trajectory; not gated (absolute
 *     latency is machine-dependent).
 *  5. O3 core — phase-1 simulation throughput (million committed
 *     instructions per second) of mcf, health, gcc and vortex at
 *     their Table 3 FU counts, 50k instructions, median of 5 runs,
 *     and the time to build each one's static program (median of 5
 *     TraceGenerator constructions at the same seed). Reported and
 *     recorded; not gated.
 *  6. Render — one serial SweepResult::toCsv() and toJson() of a
 *     sweep shaped like one of perfbench's warm_grid sweeps (the
 *     nine Table 3 benchmarks x 34 points x its seven policies, at
 *     insts), median of kRenderReps; the sweep itself is set-up,
 *     off the clock. Beside them, the formatter alone: how many
 *     number tokens the two renders hold (a point's four CSV
 *     numbers count once per row, the JSON's integer counters
 *     count too) and appendNumber's median time per number over
 *     them, each of which must format back to its own bytes.
 *     Reported and recorded; not gated.
 *  7. Adaptive widths — the Adaptive lane kernel alone, one thread,
 *     at every vector width this build and CPU run
 *     (replay::kernels::detail::adaptiveWidths()), over the render
 *     dimension's nine profiles x one lane per point: the median of
 *     kWidthReps passes and the kernel's operation count per second
 *     (runs x lanes / time, "lane-steps"). Every width's accumulators
 *     must equal the 128-bit kernel's bit for bit. Records which
 *     width KernelBatch::run selects. Reported and recorded; not
 *     gated.
 *
 * Emits BENCH_replay.json for the perf-regression trajectory
 * (tools/bench_trend.py diffs these across runs) and prints tables.
 *
 * Single-thread dimensions are timed on one thread so ratios measure
 * the algorithmic win, not pool scheduling. Before timing, engine
 * results are checked against the scalar path bit for bit, so a
 * broken engine can never post a winning number.
 *
 * Arguments:
 *   insts=<n>                committed instructions per workload
 *                            (200000)
 *   seed=<n>                 trace generator seed (1)
 *   --json <file>            output path (default BENCH_replay.json)
 *   --min-speedup <x>        exit 1 if the reference-grid
 *                            engine-vs-scalar speedup is below <x>
 *                            (default 0 = report only)
 *   --min-threaded-speedup <x> exit 1 if the best pooled
 *                            multi-thread speedup is below <x>
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/experiment.hh"
#include "api/parallel.hh"
#include "api/sweep.hh"
#include "args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "replay/engine.hh"
#include "replay/kernels.hh"
#include "serve/daemon.hh"
#include "serve/socket.hh"
#include "sleep/policy_registry.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace
{

using namespace lsim;

constexpr const char *kWorkloads[] = {"gcc", "mcf", "vortex", "mst"};
constexpr std::size_t kReferencePoints = 20;

/** Distinct interval lengths in the dense grid. */
constexpr std::size_t kDenseDistinct = 3500;

/** Wall time of @p iters back-to-back calls of @p fn, in ms. */
template <typename Fn>
double
batchMs(Fn &&fn, std::size_t iters)
{
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        fn();
    return std::chrono::duration<double, std::milli>(clock::now() -
                                                     start)
        .count();
}

/** A batch size and its mean time per call. */
struct Batch
{
    std::size_t iters = 1;
    double ms = 0.0; ///< per call
};

/** The first batch of @p fn, growing from one call, that lasts at
 * least 20 ms (replays on small profiles run in microseconds). */
template <typename Fn>
Batch
calibrate(Fn &&fn)
{
    Batch b;
    for (;;) {
        const double ms = batchMs(fn, b.iters);
        if (ms >= 20.0) {
            b.ms = ms / static_cast<double>(b.iters);
            return b;
        }
        b.iters *= ms < 2.0 ? 8 : 2;
    }
}

/** Mean wall time per call of @p fn over one batch of at least
 * 20 ms. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    return calibrate(fn).ms;
}

/** Batches per side in timePairMs. */
constexpr int kPairBatches = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Wall time per call of two paths that are compared with each other:
 * after a calibration batch each, kPairBatches batches of at least
 * 20 ms per side, run alternately (first, second, first, ...), so a
 * slow stretch of a shared host lands on both sides. @return the
 * median batch of each side, in ms per call.
 */
template <typename FnA, typename FnB>
std::pair<double, double>
timePairMs(FnA &&first, FnB &&second)
{
    const std::size_t iters_first = calibrate(first).iters;
    const std::size_t iters_second = calibrate(second).iters;
    std::vector<double> ms_first, ms_second;
    for (int i = 0; i < kPairBatches; ++i) {
        ms_first.push_back(batchMs(first, iters_first) /
                           static_cast<double>(iters_first));
        ms_second.push_back(batchMs(second, iters_second) /
                            static_cast<double>(iters_second));
    }
    return {median(ms_first), median(ms_second)};
}

struct GridResult
{
    std::size_t points = 0;
    std::size_t workloads = 0;
    std::size_t distinct_intervals = 0; ///< summed over workloads
    std::size_t units = 0;              ///< engine accumulators
    double scalar_ms = 0.0;
    double multi_ms = 0.0; ///< the engine

    double speedup() const
    {
        return multi_ms > 0.0 ? scalar_ms / multi_ms : 0.0;
    }
};

/** One pooled replay measurement at a thread count. */
struct ThreadedResult
{
    unsigned threads = 0;
    double ms = 0.0;
    double speedup = 0.0; ///< vs the 1-thread row
};

bool
sameResults(const std::vector<sleep::PolicyResult> &a,
            const std::vector<sleep::PolicyResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].name != b[i].name || a[i].energy != b[i].energy ||
            a[i].relative_to_base != b[i].relative_to_base ||
            a[i].leakage_fraction != b[i].leakage_fraction ||
            a[i].counts.active != b[i].counts.active ||
            a[i].counts.unctrl_idle != b[i].counts.unctrl_idle ||
            a[i].counts.sleep != b[i].counts.sleep ||
            a[i].counts.transitions != b[i].counts.transitions)
            return false;
    return true;
}

/**
 * Equivalence gate shared by every dimension: the kernel engine must
 * reproduce the scalar path bit for bit on @p idle before any of its
 * times can count.
 */
void
checkEquivalence(const harness::IdleProfile &idle,
                 const std::vector<energy::ModelParams> &points,
                 const std::vector<std::string> &keys,
                 const char *what)
{
    const auto kernel = replay::replayProfile(idle, points, keys);
    for (std::size_t t = 0; t < points.size(); ++t) {
        const auto scalar =
            api::evaluateProfile(idle, points[t], keys);
        if (!sameResults(kernel[t], scalar))
            fatal("kernel/scalar mismatch: %s at p=%g", what,
                  points[t].p);
    }
}

GridResult
measureGrid(const std::vector<harness::WorkloadSim> &sims,
            std::size_t num_points)
{
    const auto points = api::pSweep(0.05, 1.0,
                                    static_cast<unsigned>(num_points));
    const auto &keys = sleep::PolicyRegistry::paperSpecs();

    GridResult grid;
    grid.points = num_points;
    grid.workloads = sims.size();

    for (const auto &ws : sims) {
        checkEquivalence(ws.idle, points, keys, ws.name.c_str());
        replay::MultiPointReplay probe(
            replay::IntervalSet::fromProfile(ws.idle), points, keys);
        grid.distinct_intervals += probe.intervals().numDistinct();
        grid.units += probe.numUnits();
    }

    // The scalar reference: one evaluateProfile per (workload,
    // point) cell, one walk over the interval multiset each. The
    // engine phase 2: per workload, one pass over the multiset for
    // all points (construction included — it is part of the
    // per-cell cost the sweep pays).
    std::tie(grid.scalar_ms, grid.multi_ms) = timePairMs(
        [&] {
            for (const auto &ws : sims)
                for (const auto &mp : points)
                    api::evaluateProfile(ws.idle, mp, keys);
        },
        [&] {
            for (const auto &ws : sims)
                replay::replayProfile(ws.idle, points, keys);
        });
    return grid;
}

/**
 * Deterministic synthetic idle profile with @p distinct interval
 * lengths under a power-law-ish count decay — the interval-rich
 * regime of production-scale traces, which the simulated 200k-inst
 * workloads (only ~125 distinct lengths each) cannot reach.
 */
harness::IdleProfile
syntheticProfile(std::size_t distinct)
{
    harness::IdleProfile idle;
    idle.num_fus = 2;
    idle.active_cycles = 50'000'000;
    for (Cycle len = 1; len <= distinct; ++len) {
        const std::uint64_t count =
            1 + 2'000'000 / (len * len + 100);
        idle.intervals[len] = count;
        idle.idle_cycles += len * count;
    }
    return idle;
}

/**
 * Scalar vs engine on the dense synthetic grid under @p keys. The
 * IntervalSet is flattened once outside the timed region (a sweep
 * flattens once per workload); each engine iteration pays engine
 * construction, replay, and finalize.
 */
GridResult
measureDense(const harness::IdleProfile &idle,
             const std::vector<std::string> &keys)
{
    const auto points = api::pSweep(
        0.05, 1.0, static_cast<unsigned>(kReferencePoints));
    checkEquivalence(idle, points, keys, "dense");

    const auto set = replay::IntervalSet::fromProfile(idle);
    GridResult grid;
    grid.points = kReferencePoints;
    grid.workloads = 1;
    grid.distinct_intervals = set.numDistinct();
    {
        replay::MultiPointReplay probe(set, points, keys);
        grid.units = probe.numUnits();
    }

    std::tie(grid.scalar_ms, grid.multi_ms) = timePairMs(
        [&] {
            for (const auto &mp : points)
                api::evaluateProfile(idle, mp, keys);
        },
        [&] {
            replay::MultiPointReplay engine(set, points, keys);
            engine.runAll();
            (void)engine.finalize();
        });
    return grid;
}

/** Spool-daemon request latency: cold (first request simulates)
 * and warm (shared store + persistent pool, pure replay). */
struct ServeResult
{
    std::size_t points = 0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    double socket_warm_ms = 0.0;
};

/**
 * End-to-end daemon latency through a temp spool: drop a one-sweep
 * gcc spec, drain, read nothing back (the daemon's own status/result
 * writes are part of the serving cost being measured). The warm
 * number is what an interactive client of `lsim serve` actually
 * waits per request once the store knows the workload.
 */
ServeResult
measureServe(std::uint64_t insts, std::uint64_t seed)
{
    namespace fs = std::filesystem;
    constexpr std::size_t kPoints = 8;
    const fs::path root =
        fs::temp_directory_path() / "lsim_bench_serve";
    fs::remove_all(root);

    std::atomic<bool> stop_pump{false};
    serve::ServeConfig cfg;
    cfg.spool_dir = (root / "spool").string();
    cfg.cache_dir = (root / "cache").string();
    cfg.socket_path = (root / "lsim.sock").string();
    cfg.stop = [&stop_pump] { return stop_pump.load(); };
    std::optional<serve::Daemon> daemon(std::in_place, cfg);

    std::ostringstream spec;
    spec << "{\"sweeps\": [{\"benchmarks\": [\"gcc\"], \"steps\": "
         << kPoints << ", \"insts\": " << insts
         << ", \"seed\": " << seed << "}]}";
    std::size_t n = 0;
    const auto drop = [&] {
        std::ofstream out(fs::path(cfg.spool_dir) /
                          ("req" + std::to_string(n++) + ".json"));
        out << spec.str();
    };

    ServeResult result;
    result.points = kPoints;
    {
        const auto start = std::chrono::steady_clock::now();
        drop();
        daemon->drainOnce();
        result.cold_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
    }
    result.warm_ms = timeMs([&] {
        drop();
        daemon->drainOnce();
    });

    // Socket front door: the same warm request as a submit-and-wait
    // round trip over AF_UNIX, with the daemon loop pumping the
    // queue. Distinct names keep the requests from coalescing, so
    // each round trip is a real execution. One untimed round trip
    // first so thread spin-up is not on the clock.
    std::thread pump([&daemon] { daemon->run(); });
    const std::string spec_text = spec.str();
    const auto round_trip = [&](const std::string &name) {
        const auto res = serve::socketSubmit(
            daemon->socketPath(), name, spec_text, 0,
            /*wait=*/true, /*timeout_s=*/120.0);
        if (!res.ok)
            fatal("serve bench: socket submit failed: %s",
                  res.error.c_str());
    };
    round_trip("sock_warmup");
    constexpr int kSocketReps = 4;
    result.socket_warm_ms = timeMs([&] {
        for (int i = 0; i < kSocketReps; ++i)
            round_trip("sock_warm" + std::to_string(i));
    }) / kSocketReps;
    stop_pump.store(true);
    pump.join();

    if (daemon->stats().failed != 0 ||
        daemon->stats().done != daemon->stats().processed)
        fatal("serve bench: %zu of %zu request(s) failed",
              daemon->stats().failed, daemon->stats().processed);
    // The store's final index flush needs its directory: destroy the
    // daemon first.
    daemon.reset();
    fs::remove_all(root);
    return result;
}

struct CoreResult
{
    const char *name = "";
    unsigned fus = 0;
    double minst_per_s = 0.0; ///< median over kCoreReps runs
    double build_ms = 0.0;    ///< median over kCoreReps builds
};

constexpr std::uint64_t kCoreInsts = 50'000;
constexpr int kCoreReps = 5;

/**
 * O3 throughput of the benchmarks the cold daemon workloads simulate,
 * each at its Table 3 FU count, through the same
 * harness::simulateWorkload call the batch runner makes; beside it,
 * the time to build the benchmark's static program (a
 * trace::TraceGenerator construction at the same seed), which each
 * of those runs pays before its first cycle.
 */
std::vector<CoreResult>
measureCore(std::uint64_t seed)
{
    using clock = std::chrono::steady_clock;
    std::vector<CoreResult> out;
    for (const char *name : {"mcf", "health", "gcc", "vortex"}) {
        const trace::WorkloadProfile &profile =
            trace::profileByName(name);
        std::vector<double> rates;
        std::vector<double> builds;
        for (int rep = 0; rep < kCoreReps; ++rep) {
            const auto start = clock::now();
            const harness::WorkloadSim ws = harness::simulateWorkload(
                profile, profile.paper_fus, kCoreInsts, {}, seed);
            const double us = std::chrono::duration<double, std::micro>(
                                  clock::now() - start)
                                  .count();
            rates.push_back(static_cast<double>(ws.sim.committed) / us);

            const auto build_start = clock::now();
            const trace::TraceGenerator gen(profile, seed);
            builds.push_back(std::chrono::duration<double, std::milli>(
                                 clock::now() - build_start)
                                 .count());
        }
        out.push_back({name, profile.paper_fus, median(rates),
                       median(builds)});
    }
    return out;
}

struct RenderResult
{
    std::size_t csv_bytes = 0;
    std::size_t json_bytes = 0;
    double csv_ms = 0.0;  ///< median over kRenderReps renders
    double json_ms = 0.0; ///< median over kRenderReps renders
    std::size_t numbers = 0;    ///< number tokens in both renders
    double ns_per_number = 0.0; ///< median over kRenderReps passes
};

constexpr int kRenderReps = 9;

/** @p bytes rendered in @p ms, as MB/s. */
double
mbPerS(std::size_t bytes, double ms)
{
    return ms > 0.0 ? static_cast<double>(bytes) / 1e3 / ms : 0.0;
}

/** One of perfbench's warm_grid sweeps: the nine Table 3
 * benchmarks x 34 points x its seven policies. */
api::SweepResult
warmGridSweep(std::uint64_t insts, std::uint64_t seed)
{
    api::SweepConfig cfg;
    cfg.technologies = api::pSweep(0.05, 1.0, 34);
    cfg.policies = {"max-sleep",  "gradual", "always-active",
                    "no-overhead", "timeout:64", "oracle",
                    "adaptive"};
    cfg.insts = insts;
    cfg.seed = seed;
    return api::SweepRunner(cfg).run();
}

/** Thread counts of the pooled replay rows (dimension 3). */
constexpr unsigned kThreadCounts[] = {1, 2, 4};

/**
 * The pooled replay rows (see the file comment, dimension 3):
 * @p sweep's cells replayed from engine build to finalize by
 * api::detail::ReplayDriver on a ThreadPool of threads - 1 workers
 * plus the calling thread. The pools are built outside the timed
 * region, as the daemon's pool is running before a request arrives.
 * After one calibration batch each, the rows take kPairBatches
 * batches in turn, as in timePairMs, and each posts its median.
 */
std::vector<ThreadedResult>
measureThreaded(const api::SweepResult &sweep)
{
    constexpr std::size_t kRows = std::size(kThreadCounts);
    std::optional<api::detail::ThreadPool> pools[kRows];
    std::vector<api::SweepResult> replayed(kRows, sweep);
    std::vector<std::function<void()>> replay;
    std::vector<std::size_t> iters;
    for (std::size_t r = 0; r < kRows; ++r) {
        const unsigned threads = kThreadCounts[r];
        if (threads > 1)
            pools[r].emplace(threads - 1);
        replay.push_back([&, r, threads] {
            api::detail::ReplayDriver driver;
            driver.add(replayed[r]);
            driver.run(threads, pools[r] ? &*pools[r] : nullptr);
        });
        replay[r]();
        const auto &cells = replayed[r].cells;
        for (std::size_t c = 0; c < cells.size(); ++c)
            if (!sameResults(cells[c].policies,
                             replayed[0].cells[c].policies))
                fatal("pooled replay: cell %zu differs at %u threads "
                      "from 1 thread",
                      c, threads);
        iters.push_back(calibrate(replay[r]).iters);
    }
    std::vector<std::vector<double>> ms(kRows);
    for (int b = 0; b < kPairBatches; ++b)
        for (std::size_t r = 0; r < kRows; ++r)
            ms[r].push_back(batchMs(replay[r], iters[r]) /
                            static_cast<double>(iters[r]));
    std::vector<ThreadedResult> results;
    for (std::size_t r = 0; r < kRows; ++r) {
        const double row_ms = median(ms[r]);
        results.push_back({kThreadCounts[r], row_ms,
                           results.empty() ? 1.0
                                           : results[0].ms / row_ms});
    }
    return results;
}

/**
 * Append the number tokens of @p text to @p out: the runs between
 * @p separators, outside double quotes, that parse whole as a
 * double. Each must format back to its own bytes, or the bench
 * fatal()s.
 */
void
collectNumbers(const std::string &text, const char *separators,
               std::vector<double> &out)
{
    std::size_t i = 0;
    while (i < text.size()) {
        if (text[i] == '"') {
            // A JSON string (escapes skipped) or a quoted CSV cell,
            // whose "" escape reads as two strings.
            for (++i; i < text.size() && text[i] != '"'; ++i)
                if (text[i] == '\\')
                    ++i;
            ++i;
            continue;
        }
        const std::size_t end =
            std::min(text.find_first_of(separators, i), text.size());
        if (end == i) {
            ++i;
            continue;
        }
        const std::string token = text.substr(i, end - i);
        char *parsed = nullptr;
        const double value = std::strtod(token.c_str(), &parsed);
        if (parsed == token.c_str() + token.size()) {
            if (compactNumber(value) != token)
                fatal("render: '%s' formats back as '%s'",
                      token.c_str(), compactNumber(value).c_str());
            out.push_back(value);
        }
        i = end;
    }
}

/** Serial CSV and JSON render time of @p sweep, and appendNumber's
 * time per number over the numbers the two renders hold (see the
 * file comment, dimension 6). */
RenderResult
measureRender(const api::SweepResult &sweep)
{
    RenderResult out;
    std::vector<double> csv_ms, json_ms, number_ns;
    const auto elapsedMs = [](auto &&render) {
        const auto start = std::chrono::steady_clock::now();
        render();
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    for (int rep = 0; rep < kRenderReps; ++rep) {
        csv_ms.push_back(elapsedMs(
            [&] { out.csv_bytes = sweep.toCsv().size(); }));
        json_ms.push_back(elapsedMs(
            [&] { out.json_bytes = sweep.toJson().size(); }));
    }

    std::vector<double> numbers;
    collectNumbers(sweep.toCsv(), ",\n", numbers);
    collectNumbers(sweep.toJson(), ",:[]{} \n", numbers);
    out.numbers = numbers.size();
    std::string text;
    for (int rep = 0; rep < kRenderReps && !numbers.empty(); ++rep) {
        text.clear();
        const double ms = elapsedMs([&] {
            for (const double v : numbers)
                appendNumber(text, v);
        });
        number_ns.push_back(ms * 1e6 /
                            static_cast<double>(numbers.size()));
    }

    std::sort(csv_ms.begin(), csv_ms.end());
    std::sort(json_ms.begin(), json_ms.end());
    std::sort(number_ns.begin(), number_ns.end());
    out.csv_ms = csv_ms[kRenderReps / 2];
    out.json_ms = json_ms[kRenderReps / 2];
    if (!number_ns.empty())
        out.ns_per_number = number_ns[number_ns.size() / 2];
    return out;
}

/** The Adaptive kernel at one vector width (dimension 7). */
struct WidthResult
{
    unsigned width = 0;
    std::size_t block_lanes = 0;
    double ms = 0.0; ///< median over kWidthReps passes
    double lane_steps_per_s = 0.0;
};

constexpr int kWidthReps = 9;

/** Lanes of @p bank as raw bits, for an exact comparison. */
std::vector<double>
bankValues(const replay::kernels::AccumulatorBank &bank)
{
    std::vector<double> out;
    for (const auto *field : {&bank.active, &bank.unctrl_idle,
                              &bank.sleep, &bank.transitions})
        out.insert(out.end(), field->begin(), field->end());
    return out;
}

/** Single-thread Adaptive kernel time over @p sweep's profiles, one
 * lane per technology point, at every width (see the file comment,
 * dimension 7). */
std::vector<WidthResult>
measureAdaptiveWidths(const api::SweepResult &sweep)
{
    namespace kernels = replay::kernels;
    std::vector<replay::IntervalSet> sets;
    std::uint64_t runs = 0;
    for (const auto &ws : sweep.sims) {
        sets.push_back(replay::IntervalSet::fromProfile(ws.idle));
        for (std::uint64_t count : sets.back().counts)
            runs += count;
    }
    kernels::KernelBatch batch(sleep::KernelSpec::Kind::Adaptive);
    const auto adaptive =
        sleep::PolicyRegistry::instance().resolve("adaptive");
    for (const auto &mp : sweep.technologies)
        batch.addLane(adaptive.spec(mp));

    std::vector<WidthResult> out;
    std::vector<std::vector<double>> baseline;
    for (unsigned width : kernels::detail::adaptiveWidths()) {
        std::vector<std::vector<double>> banks;
        std::vector<double> ms;
        for (int rep = 0; rep < kWidthReps; ++rep) {
            banks.clear();
            const auto start = std::chrono::steady_clock::now();
            for (const auto &set : sets) {
                kernels::AccumulatorBank bank;
                bank.resize(batch.lanes());
                kernels::detail::runAtWidth(batch, width, set, bank);
                banks.push_back(bankValues(bank));
            }
            ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
        }
        if (baseline.empty())
            baseline = banks;
        else if (banks != baseline)
            fatal("adaptive kernel mismatch: %u-bit vs 128-bit", width);
        std::sort(ms.begin(), ms.end());
        const double median = ms[kWidthReps / 2];
        out.push_back(
            {width, kernels::detail::adaptiveBlockLanes(width), median,
             median > 0.0 ? static_cast<double>(runs) *
                                static_cast<double>(batch.lanes()) /
                                (median / 1e3)
                          : 0.0});
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);

    std::string json_path = "BENCH_replay.json";
    double min_speedup = 0.0;
    double min_threaded_speedup = 0.0;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--min-speedup") == 0 &&
                 i + 1 < argc)
            min_speedup = std::strtod(argv[++i], nullptr);
        else if (std::strcmp(argv[i], "--min-threaded-speedup") ==
                     0 &&
                 i + 1 < argc)
            min_threaded_speedup = std::strtod(argv[++i], nullptr);
        else
            passthrough.push_back(argv[i]);
    }
    bench::Args opts(200'000);
    opts.parse(static_cast<int>(passthrough.size()),
               passthrough.data());

    // Phase 1 once: the replay benchmarks share the simulations.
    std::vector<harness::WorkloadSim> sims;
    for (const char *name : kWorkloads)
        sims.push_back(api::Experiment::builder()
                           .workload(name)
                           .insts(opts.insts)
                           .seed(opts.seed)
                           .session()
                           .sim());

    const std::size_t grids[] = {1, 4, 8, 20};
    std::vector<GridResult> results;
    GridResult reference;
    for (std::size_t points : grids) {
        results.push_back(measureGrid(sims, points));
        if (points == kReferencePoints)
            reference = results.back();
    }
    const harness::IdleProfile dense_idle =
        syntheticProfile(kDenseDistinct);
    const GridResult dense =
        measureDense(dense_idle, sleep::PolicyRegistry::paperSpecs());
    const GridResult dense_adaptive =
        measureDense(dense_idle, {"adaptive"});
    const ServeResult served = measureServe(opts.insts, opts.seed);
    const std::vector<CoreResult> core = measureCore(opts.seed);
    const api::SweepResult grid_sweep = warmGridSweep(opts.insts, opts.seed);
    const std::vector<ThreadedResult> threaded =
        measureThreaded(grid_sweep);
    const RenderResult render = measureRender(grid_sweep);
    const std::vector<WidthResult> widths =
        measureAdaptiveWidths(grid_sweep);
    const unsigned selected_width =
        replay::kernels::detail::adaptiveWidths().back();
    double best_threaded = 0.0;
    for (const auto &t : threaded)
        if (t.threads > 1)
            best_threaded = std::max(best_threaded, t.speedup);

    Table table({"grid", "points", "intervals", "units",
                 "scalar (ms)", "engine (ms)", "vs scalar"});
    const auto addRow = [&](const char *name, const GridResult &g) {
        table.addRow({name, std::to_string(g.points),
                      std::to_string(g.distinct_intervals),
                      std::to_string(g.units),
                      fixed(g.scalar_ms, 3), fixed(g.multi_ms, 3),
                      fixed(g.speedup(), 2)});
    };
    for (const auto &g : results)
        addRow("workloads", g);
    addRow("dense", dense);
    addRow("dense adaptive", dense_adaptive);
    table.print(std::cout);

    Table tthr({"threads", "replay (ms)", "speedup"});
    for (const auto &t : threaded)
        tthr.addRow({std::to_string(t.threads), fixed(t.ms, 3),
                     fixed(t.speedup, 2)});
    std::cout << "\nPooled replay (ReplayDriver, 9 benchmarks x "
              << grid_sweep.technologies.size()
              << " points x 7 policies, median of " << kPairBatches
              << " batches):\n";
    tthr.print(std::cout);

    std::cout << "\nSpool daemon (" << served.points
              << "-point gcc spec, shared store + persistent "
                 "pool): cold "
              << fixed(served.cold_ms, 3) << " ms, warm "
              << fixed(served.warm_ms, 3) << " ms/request, socket warm "
              << fixed(served.socket_warm_ms, 3) << " ms/request\n";

    Table tcore({"benchmark", "fus", "Minst/s", "build (ms)"});
    for (const auto &c : core)
        tcore.addRow({c.name, std::to_string(c.fus),
                      fixed(c.minst_per_s, 3), fixed(c.build_ms, 3)});
    std::cout << "\nO3 core (" << kCoreInsts
              << " instructions, median of " << kCoreReps << "):\n";
    tcore.print(std::cout);

    Table trender({"output", "bytes", "ms", "MB/s"});
    trender.addRow({"csv", std::to_string(render.csv_bytes),
                    fixed(render.csv_ms, 3),
                    fixed(mbPerS(render.csv_bytes, render.csv_ms), 1)});
    trender.addRow(
        {"json", std::to_string(render.json_bytes),
         fixed(render.json_ms, 3),
         fixed(mbPerS(render.json_bytes, render.json_ms), 1)});
    std::cout << "\nSweep render (9 benchmarks x 34 points x 7 "
                 "policies, serial, median of "
              << kRenderReps << "):\n";
    trender.print(std::cout);
    std::cout << "appendNumber over the " << render.numbers
              << " numbers of both renders: "
              << fixed(render.ns_per_number, 1) << " ns/number\n";

    Table twidth({"width", "block lanes", "ms", "Mlane-steps/s"});
    for (const auto &w : widths)
        twidth.addRow({std::to_string(w.width) +
                           (w.width == selected_width ? " (selected)"
                                                      : ""),
                       std::to_string(w.block_lanes), fixed(w.ms, 3),
                       fixed(w.lane_steps_per_s / 1e6, 1)});
    std::cout << "\nAdaptive kernel by vector width (9 benchmarks x "
              << grid_sweep.technologies.size()
              << " lanes, one thread, median of " << kWidthReps
              << "):\n";
    twidth.print(std::cout);

    std::cout << "\nReference grid (" << kReferencePoints
              << " points x " << sims.size()
              << " workloads): " << fixed(reference.speedup(), 2)
              << "x vs scalar; dense grid "
              << fixed(dense.speedup(), 2) << "x vs scalar (adaptive "
              << fixed(dense_adaptive.speedup(), 2) << "x)\n";

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "bench_replay_perf: cannot write '" << json_path
                  << "'\n";
        return 2;
    }
    {
        JsonWriter w(out);
        w.beginObject();
        w.field("bench", "replay_perf");
        w.field("insts", opts.insts);
        w.field("seed", opts.seed);
        w.beginArray("grids");
        for (const auto &g : results) {
            w.beginObject();
            w.field("points", static_cast<std::uint64_t>(g.points));
            w.field("workloads",
                    static_cast<std::uint64_t>(g.workloads));
            w.field("distinct_intervals",
                    static_cast<std::uint64_t>(g.distinct_intervals));
            w.field("units", static_cast<std::uint64_t>(g.units));
            w.field("scalar_ms", g.scalar_ms);
            w.field("multi_ms", g.multi_ms);
            w.field("speedup", g.speedup());
            w.endObject();
        }
        w.endArray();
        const auto denseObject = [&](const char *key,
                                     const GridResult &g) {
            w.beginObject(key);
            w.field("points", static_cast<std::uint64_t>(g.points));
            w.field("distinct_intervals",
                    static_cast<std::uint64_t>(g.distinct_intervals));
            w.field("units", static_cast<std::uint64_t>(g.units));
            w.field("scalar_ms", g.scalar_ms);
            w.field("multi_ms", g.multi_ms);
            w.field("speedup", g.speedup());
            w.endObject();
        };
        denseObject("dense", dense);
        // Report-only: no gate reads this row.
        denseObject("dense_adaptive", dense_adaptive);
        w.beginArray("threaded");
        for (const auto &t : threaded) {
            w.beginObject();
            w.field("threads",
                    static_cast<std::uint64_t>(t.threads));
            w.field("ms", t.ms);
            w.field("speedup", t.speedup);
            w.endObject();
        }
        w.endArray();
        w.beginObject("serve");
        w.field("points",
                static_cast<std::uint64_t>(served.points));
        w.field("cold_request_ms", served.cold_ms);
        w.field("warm_request_ms", served.warm_ms);
        w.field("socket_warm_request_ms", served.socket_warm_ms);
        w.endObject();
        w.beginObject("core");
        w.field("insts", kCoreInsts);
        w.field("reps", static_cast<std::uint64_t>(kCoreReps));
        w.beginArray("benchmarks");
        for (const auto &c : core) {
            w.beginObject();
            w.field("name", c.name);
            w.field("fus", c.fus);
            w.field("minst_per_s", c.minst_per_s);
            w.field("build_ms", c.build_ms);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        // Report-only: no gate reads this block.
        w.beginObject("render");
        w.field("reps", static_cast<std::uint64_t>(kRenderReps));
        w.field("csv_bytes", static_cast<std::uint64_t>(render.csv_bytes));
        w.field("json_bytes",
                static_cast<std::uint64_t>(render.json_bytes));
        w.field("csv_ms", render.csv_ms);
        w.field("json_ms", render.json_ms);
        w.field("csv_mb_per_s", mbPerS(render.csv_bytes, render.csv_ms));
        w.field("json_mb_per_s",
                mbPerS(render.json_bytes, render.json_ms));
        w.field("numbers", static_cast<std::uint64_t>(render.numbers));
        w.field("ns_per_number", render.ns_per_number);
        w.endObject();
        // Report-only: no gate reads this block.
        w.beginObject("adaptive_widths");
        w.field("reps", static_cast<std::uint64_t>(kWidthReps));
        w.field("lanes", static_cast<std::uint64_t>(
                             grid_sweep.technologies.size()));
        w.field("selected_width",
                static_cast<std::uint64_t>(selected_width));
        w.beginArray("widths");
        for (const auto &wr : widths) {
            w.beginObject();
            w.field("width", static_cast<std::uint64_t>(wr.width));
            w.field("block_lanes",
                    static_cast<std::uint64_t>(wr.block_lanes));
            w.field("ms", wr.ms);
            w.field("lane_steps_per_s", wr.lane_steps_per_s);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.beginObject("reference");
        w.field("points",
                static_cast<std::uint64_t>(reference.points));
        w.field("workloads",
                static_cast<std::uint64_t>(reference.workloads));
        w.field("speedup", reference.speedup());
        w.field("threaded_speedup", best_threaded);
        w.field("min_required", min_speedup);
        w.field("min_threaded_required", min_threaded_speedup);
        w.endObject();
        w.endObject();
        out << "\n";
    }
    std::cout << "wrote " << json_path << "\n";

    int rc = 0;
    if (min_speedup > 0.0 && reference.speedup() < min_speedup) {
        std::cerr << "bench_replay_perf: reference speedup "
                  << fixed(reference.speedup(), 2) << "x below the "
                  << fixed(min_speedup, 2) << "x gate\n";
        rc = 1;
    }
    if (min_threaded_speedup > 0.0 &&
        best_threaded < min_threaded_speedup) {
        std::cerr << "bench_replay_perf: best pooled speedup "
                  << fixed(best_threaded, 2) << "x below the "
                  << fixed(min_threaded_speedup, 2) << "x gate\n";
        rc = 1;
    }
    return rc;
}
