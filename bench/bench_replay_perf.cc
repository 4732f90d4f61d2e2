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
 *     times the scalar path there.
 *  2. Kernel vs virtual — the batched closed-form kernels versus the
 *     same engine with per-unit virtual dispatch
 *     (ReplayOptions::use_kernels = false, the PR 3 inner loop), on
 *     a dense synthetic 20-point grid whose interval multiset is
 *     rich enough (kDenseDistinct distinct lengths) that replay
 *     work, not per-sweep setup, dominates — the regime the kernels
 *     exist for. CI gates the paper policies' row with
 *     --min-kernel-speedup; a second row replays `adaptive` alone
 *     (its stateful lane kernel) and is reported, not gated.
 *  3. Sharded/threaded — the chunk-sharded engine on an interval
 *     multiset above the auto-shard threshold, replayed at 1/4/8
 *     threads through the same parallelFor the sweep runner uses.
 *     CI gates the best multi-thread speedup with
 *     --min-threaded-speedup.
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
 *     their Table 3 FU counts, 50k instructions, median of 5 runs.
 *     Reported and recorded; not gated.
 *
 * Emits BENCH_replay.json for the perf-regression trajectory
 * (tools/bench_trend.py diffs these across runs) and prints tables.
 *
 * Single-thread dimensions are timed on one thread so ratios measure
 * the algorithmic win, not pool scheduling. Before timing, engine
 * results are checked against the scalar path (bit-exact for
 * unchunked runs, 1e-12 relative for the chunked configuration), so
 * a broken engine can never post a winning number.
 *
 * Arguments:
 *   insts=<n>                committed instructions per workload
 *                            (200000)
 *   seed=<n>                 trace generator seed (1)
 *   --json <file>            output path (default BENCH_replay.json)
 *   --min-speedup <x>        exit 1 if the reference-grid
 *                            engine-vs-scalar speedup is below <x>
 *                            (default 0 = report only)
 *   --min-kernel-speedup <x> exit 1 if the dense-grid
 *                            kernel-vs-virtual speedup is below <x>
 *   --min-threaded-speedup <x> exit 1 if the best sharded
 *                            multi-thread speedup is below <x>
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
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
#include "serve/daemon.hh"
#include "serve/socket.hh"
#include "sleep/policy_registry.hh"
#include "trace/profile.hh"

namespace
{

using namespace lsim;

constexpr const char *kWorkloads[] = {"gcc", "mcf", "vortex", "mst"};
constexpr std::size_t kReferencePoints = 20;

/** Distinct interval lengths in the dense kernel-vs-virtual grid
 * (kept below the auto-shard threshold: single chunk, bit-exact). */
constexpr std::size_t kDenseDistinct = 3500;

/** Distinct lengths in the sharded/threaded grid (above the
 * auto-shard threshold, so chunking engages as in production). */
constexpr std::size_t kShardedDistinct = 24'000;

/** Wall time of @p fn, best of enough repeats to exceed ~20 ms per
 * measurement (replays on small profiles run in microseconds). */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    std::size_t iters = 1;
    for (;;) {
        const auto start = clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            fn();
        const double ms =
            std::chrono::duration<double, std::milli>(clock::now() -
                                                      start)
                .count();
        if (ms >= 20.0)
            return ms / static_cast<double>(iters);
        iters *= ms < 2.0 ? 8 : 2;
    }
}

struct GridResult
{
    std::size_t points = 0;
    std::size_t workloads = 0;
    std::size_t distinct_intervals = 0; ///< summed over workloads
    std::size_t units = 0;              ///< engine accumulators
    double scalar_ms = 0.0;
    double multi_ms = 0.0;   ///< the engine (kernel path)
    double virtual_ms = 0.0; ///< the engine, use_kernels = false

    double speedup() const
    {
        return multi_ms > 0.0 ? scalar_ms / multi_ms : 0.0;
    }

    double kernelSpeedup() const
    {
        return multi_ms > 0.0 ? virtual_ms / multi_ms : 0.0;
    }
};

/** One sharded measurement at a thread count. */
struct ThreadedResult
{
    unsigned threads = 0;
    double ms = 0.0;
    double speedup = 0.0; ///< vs the 1-thread sharded run
};

bool
sameResults(const std::vector<sleep::PolicyResult> &a,
            const std::vector<sleep::PolicyResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].name != b[i].name || a[i].energy != b[i].energy ||
            a[i].relative_to_base != b[i].relative_to_base)
            return false;
    return true;
}

bool
nearResults(const std::vector<sleep::PolicyResult> &a,
            const std::vector<sleep::PolicyResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double scale = std::max(
            {1.0, std::abs(a[i].energy), std::abs(b[i].energy)});
        if (a[i].name != b[i].name ||
            std::abs(a[i].energy - b[i].energy) > 1e-12 * scale)
            return false;
    }
    return true;
}

/**
 * Equivalence gate shared by every dimension: the kernel engine and
 * the virtual engine must both reproduce the scalar path bit for
 * bit on @p idle before any of their times can count.
 */
void
checkEquivalence(const harness::IdleProfile &idle,
                 const std::vector<energy::ModelParams> &points,
                 const std::vector<std::string> &keys,
                 const char *what)
{
    replay::ReplayOptions virt;
    virt.use_kernels = false;
    const auto kernel = replay::replayProfile(idle, points, keys);
    const auto virtual_path =
        replay::replayProfile(idle, points, keys, virt);
    for (std::size_t t = 0; t < points.size(); ++t) {
        const auto scalar =
            api::evaluateProfile(idle, points[t], keys);
        if (!sameResults(kernel[t], scalar))
            fatal("kernel/scalar mismatch: %s at p=%g", what,
                  points[t].p);
        if (!sameResults(virtual_path[t], scalar))
            fatal("virtual/scalar mismatch: %s at p=%g", what,
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
    // point) cell, one walk over the interval multiset each.
    grid.scalar_ms = timeMs([&] {
        for (const auto &ws : sims)
            for (const auto &mp : points)
                api::evaluateProfile(ws.idle, mp, keys);
    });

    // The engine phase 2: per workload, one pass over the multiset
    // for all points (construction included — it is part of the
    // per-cell cost the sweep pays).
    grid.multi_ms = timeMs([&] {
        for (const auto &ws : sims)
            replay::replayProfile(ws.idle, points, keys);
    });
    replay::ReplayOptions virt;
    virt.use_kernels = false;
    grid.virtual_ms = timeMs([&] {
        for (const auto &ws : sims)
            replay::replayProfile(ws.idle, points, keys, virt);
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
 * Kernel-vs-virtual on the dense synthetic grid under @p keys. The
 * IntervalSet is flattened once outside the timed region (a sweep
 * flattens once per workload regardless of replay path); each
 * iteration pays engine construction, replay, and finalize.
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

    grid.scalar_ms = timeMs([&] {
        for (const auto &mp : points)
            api::evaluateProfile(idle, mp, keys);
    });
    grid.multi_ms = timeMs([&] {
        replay::MultiPointReplay engine(set, points, keys);
        engine.runAll();
        (void)engine.finalize();
    });
    replay::ReplayOptions virt;
    virt.use_kernels = false;
    grid.virtual_ms = timeMs([&] {
        replay::MultiPointReplay engine(set, points, keys, virt);
        engine.runAll();
        (void)engine.finalize();
    });
    return grid;
}

/**
 * The sharded/threaded configuration: chunked replay through the
 * same parallelFor the sweep runner uses (thread spawn included —
 * that is what a sweep pays per workload batch).
 */
std::vector<ThreadedResult>
measureThreaded(const harness::IdleProfile &idle)
{
    const auto points = api::pSweep(
        0.05, 1.0, static_cast<unsigned>(kReferencePoints));
    const auto &keys = sleep::PolicyRegistry::paperSpecs();
    const auto set = replay::IntervalSet::fromProfile(idle);

    // Chunked results must agree with the unchunked engine to 1e-12
    // before the sharded configuration may post a time.
    {
        replay::ReplayOptions unchunked;
        unchunked.chunk_intervals = set.numDistinct();
        replay::MultiPointReplay ref(set, points, keys, unchunked);
        ref.runAll();
        const auto ref_results = ref.finalize();

        replay::MultiPointReplay chunked(set, points, keys);
        if (chunked.numChunks() < 2)
            fatal("sharded grid did not auto-shard (%zu distinct)",
                  set.numDistinct());
        chunked.runAll();
        const auto chunk_results = chunked.finalize();
        for (std::size_t t = 0; t < points.size(); ++t)
            if (!nearResults(chunk_results[t], ref_results[t]))
                fatal("chunked/unchunked mismatch at p=%g",
                      points[t].p);
    }

    std::vector<ThreadedResult> results;
    for (unsigned threads : {1u, 4u, 8u}) {
        ThreadedResult r;
        r.threads = threads;
        r.ms = timeMs([&] {
            replay::MultiPointReplay engine(set, points, keys);
            api::detail::parallelFor(engine.numTasks(), threads,
                                     [&](std::size_t i) {
                engine.runTask(i);
            });
            (void)engine.finalize();
        });
        r.speedup = results.empty() ? 1.0 : results[0].ms / r.ms;
        results.push_back(r);
    }
    return results;
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
};

constexpr std::uint64_t kCoreInsts = 50'000;
constexpr int kCoreReps = 5;

/**
 * O3 throughput of the benchmarks the cold daemon workloads simulate,
 * each at its Table 3 FU count, through the same
 * harness::simulateWorkload call the batch runner makes.
 */
std::vector<CoreResult>
measureCore(std::uint64_t seed)
{
    std::vector<CoreResult> out;
    for (const char *name : {"mcf", "health", "gcc", "vortex"}) {
        const trace::WorkloadProfile &profile =
            trace::profileByName(name);
        std::vector<double> rates;
        for (int rep = 0; rep < kCoreReps; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            const harness::WorkloadSim ws = harness::simulateWorkload(
                profile, profile.paper_fus, kCoreInsts, {}, seed);
            const double us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() -
                                  start)
                                  .count();
            rates.push_back(static_cast<double>(ws.sim.committed) / us);
        }
        std::sort(rates.begin(), rates.end());
        out.push_back({name, profile.paper_fus, rates[kCoreReps / 2]});
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
    double min_kernel_speedup = 0.0;
    double min_threaded_speedup = 0.0;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--min-speedup") == 0 &&
                 i + 1 < argc)
            min_speedup = std::strtod(argv[++i], nullptr);
        else if (std::strcmp(argv[i], "--min-kernel-speedup") == 0 &&
                 i + 1 < argc)
            min_kernel_speedup = std::strtod(argv[++i], nullptr);
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
    const std::vector<ThreadedResult> threaded =
        measureThreaded(syntheticProfile(kShardedDistinct));
    const ServeResult served = measureServe(opts.insts, opts.seed);
    const std::vector<CoreResult> core = measureCore(opts.seed);
    double best_threaded = 0.0;
    for (const auto &t : threaded)
        if (t.threads > 1)
            best_threaded = std::max(best_threaded, t.speedup);

    Table table({"grid", "points", "intervals", "units",
                 "scalar (ms)", "virtual (ms)", "kernel (ms)",
                 "vs scalar", "vs virtual"});
    const auto addRow = [&](const char *name, const GridResult &g) {
        table.addRow({name, std::to_string(g.points),
                      std::to_string(g.distinct_intervals),
                      std::to_string(g.units),
                      fixed(g.scalar_ms, 3), fixed(g.virtual_ms, 3),
                      fixed(g.multi_ms, 3), fixed(g.speedup(), 2),
                      fixed(g.kernelSpeedup(), 2)});
    };
    for (const auto &g : results)
        addRow("workloads", g);
    addRow("dense", dense);
    addRow("dense adaptive", dense_adaptive);
    table.print(std::cout);

    Table tthr({"threads", "sharded (ms)", "speedup"});
    for (const auto &t : threaded)
        tthr.addRow({std::to_string(t.threads), fixed(t.ms, 3),
                     fixed(t.speedup, 2)});
    std::cout << "\nSharded grid (" << kShardedDistinct
              << " distinct intervals x " << kReferencePoints
              << " points):\n";
    tthr.print(std::cout);

    std::cout << "\nSpool daemon (" << served.points
              << "-point gcc spec, shared store + persistent "
                 "pool): cold "
              << fixed(served.cold_ms, 3) << " ms, warm "
              << fixed(served.warm_ms, 3) << " ms/request, socket warm "
              << fixed(served.socket_warm_ms, 3) << " ms/request\n";

    Table tcore({"benchmark", "fus", "Minst/s"});
    for (const auto &c : core)
        tcore.addRow({c.name, std::to_string(c.fus),
                      fixed(c.minst_per_s, 3)});
    std::cout << "\nO3 core (" << kCoreInsts
              << " instructions, median of " << kCoreReps << "):\n";
    tcore.print(std::cout);

    std::cout << "\nReference grid (" << kReferencePoints
              << " points x " << sims.size()
              << " workloads): " << fixed(reference.speedup(), 2)
              << "x vs scalar; dense kernel path "
              << fixed(dense.kernelSpeedup(), 2)
              << "x vs virtual dispatch (adaptive "
              << fixed(dense_adaptive.kernelSpeedup(), 2) << "x)\n";

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
            w.field("virtual_ms", g.virtual_ms);
            w.field("speedup", g.speedup());
            w.field("kernel_speedup", g.kernelSpeedup());
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
            w.field("virtual_ms", g.virtual_ms);
            w.field("speedup", g.speedup());
            w.field("kernel_speedup", g.kernelSpeedup());
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
            w.field("distinct_intervals",
                    static_cast<std::uint64_t>(kShardedDistinct));
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
        w.field("kernel_speedup", dense.kernelSpeedup());
        w.field("threaded_speedup", best_threaded);
        w.field("min_required", min_speedup);
        w.field("min_kernel_required", min_kernel_speedup);
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
    if (min_kernel_speedup > 0.0 &&
        dense.kernelSpeedup() < min_kernel_speedup) {
        std::cerr << "bench_replay_perf: dense kernel speedup "
                  << fixed(dense.kernelSpeedup(), 2)
                  << "x below the "
                  << fixed(min_kernel_speedup, 2) << "x gate\n";
        rc = 1;
    }
    if (min_threaded_speedup > 0.0 &&
        best_threaded < min_threaded_speedup) {
        std::cerr << "bench_replay_perf: best sharded speedup "
                  << fixed(best_threaded, 2) << "x below the "
                  << fixed(min_threaded_speedup, 2) << "x gate\n";
        rc = 1;
    }
    return rc;
}
