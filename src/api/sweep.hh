/**
 * @file
 * Parallel workload x technology sweep runner.
 *
 * The paper's Figure 9 observation — every policy's accounting is a
 * pure function of the idle-interval multiset — makes technology
 * sweeps embarrassingly parallel in two phases:
 *
 *  1. simulate each workload ONCE (the expensive timing model),
 *     capturing its IdleProfile sufficient statistic;
 *  2. replay each profile at every technology point (cheap,
 *     O(distinct interval lengths) per policy).
 *
 * SweepRunner fans both phases across a std::thread pool. Results
 * are written into index-addressed slots, so the outcome is
 * bit-identical regardless of thread count or scheduling — a
 * 4-thread sweep matches the single-threaded reference exactly.
 */

#ifndef LSIM_API_SWEEP_HH
#define LSIM_API_SWEEP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "harness/benchmarks.hh"
#include "trace/profile.hh"

namespace lsim::api
{

/**
 * Thrown by the batch/replay executors when a caller-supplied
 * cancel hook reports true (request deadline exceeded, daemon
 * stopping). Cooperative: polled between phases and at task
 * boundaries, so in-flight tasks finish and thread pools drain
 * cleanly — the work is abandoned, never the workers.
 */
class CancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Declarative description of a sweep. */
struct SweepConfig
{
    /**
     * Workload names; may reference Table 3 benchmarks or entries of
     * `profiles`. Empty = the custom `profiles` when any are given,
     * else the full Table 3 suite.
     */
    std::vector<std::string> workloads;

    /** Technology points to evaluate (see pSweep() helper). */
    std::vector<energy::ModelParams> technologies;

    /** PolicyRegistry specs; empty = the paper's four policies. */
    std::vector<std::string> policies;

    /**
     * User-defined workload profiles (e.g. from
     * trace::loadWorkloadProfile), selectable by name alongside the
     * Table 3 suite. Names must be unique and must not shadow a
     * Table 3 benchmark.
     */
    std::vector<trace::WorkloadProfile> profiles;

    /**
     * Paths of externally produced simulations to include as
     * workloads: .lsimprof exports or JSON idle profiles (see
     * store::importAnySim). These skip phase 1 entirely — their
     * stored IdleProfile is replayed at every technology point just
     * like a fresh simulation's.
     */
    std::vector<std::string> imports;

    /** Committed instructions per workload simulation. */
    std::uint64_t insts = 500'000;

    /** Trace generator seed. */
    std::uint64_t seed = 1;

    /**
     * Integer FU count for every workload: api::auto_select derives
     * each workload's count with the Table 3 methodology; the
     * default sentinel uses the profile's paper_fus.
     */
    unsigned fus = ~0u;

    /** Base machine configuration. */
    cpu::CoreConfig base;

    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;

    /**
     * Directory of the persistent profile store (store::ProfileStore)
     * consulted before running any phase-1 timing simulation and
     * updated afterwards; empty disables caching. A warm cache makes
     * re-runs skip phase 1 entirely while producing byte-identical
     * CSV/JSON output.
     */
    std::string cache_dir;

    /// Must be 0; kept for perfbench/replica.cc (ROADMAP item 3).
    std::size_t chunk_intervals = 0;
};

/**
 * Evenly spaced leakage-factor grid: @p steps points from @p lo to
 * @p hi inclusive (one point when steps == 1), at the paper's
 * analysis defaults k = 0.001, s = 0.01.
 */
std::vector<energy::ModelParams>
pSweep(double lo, double hi, unsigned steps, double alpha = 0.5);

/** Policy results of one (workload, technology) grid cell. */
struct SweepCell
{
    std::size_t workload = 0;   ///< index into SweepResult::workloads
    std::size_t technology = 0; ///< index into technologies
    std::vector<sleep::PolicyResult> policies;
};

/** Where each phase-1 simulation of a sweep came from. */
struct SweepStats
{
    std::size_t sims_run = 0;    ///< executed by the timing model
    std::size_t cache_hits = 0;  ///< loaded from the profile store
    std::size_t imported = 0;    ///< supplied via SweepConfig::imports
};

/** Complete sweep outcome. */
struct SweepResult
{
    std::vector<std::string> workloads;
    std::vector<energy::ModelParams> technologies;
    std::vector<std::string> policy_keys;

    /** Phase-1 provenance (not serialized; output stays identical
     * whether sims were fresh, cached, or imported). */
    SweepStats stats;

    /** One timing simulation per workload (phase 1). */
    std::vector<harness::WorkloadSim> sims;

    /** Row-major cells: index = workload * technologies.size() +
     * technology. */
    std::vector<SweepCell> cells;

    const SweepCell &cell(std::size_t workload,
                          std::size_t technology) const;

    /**
     * Suite averages at technology point @p technology: each
     * policy's energy relative to NoOverhead and its leakage share
     * (the Figure 9 axes). Requires "no-overhead" among the
     * policies; fatal() otherwise.
     */
    harness::SuitePolicyAverages
    averagesAt(std::size_t technology) const;

    /**
     * CSV rows (benchmark,policy_key,policy,p,alpha,k,s,energy,
     * relative_to_base,leakage_fraction), one per cell x policy,
     * with a header row.
     */
    std::string toCsv() const;

    /** One JSON object: config echo + per-cell policy results. */
    std::string toJson() const;

    /** toCsv() / toJson() written to @p os. */
    void writeCsv(std::ostream &os) const;
    void writeJson(std::ostream &os) const;
};

namespace detail
{

class ThreadPool;

/**
 * One phase-1 timing simulation, fully specified: what BatchRunner
 * dedupes on and what the profile store keys by. `fus` is the
 * *requested* count, sentinels (auto_select, paper-FUs) included.
 */
struct SimTask
{
    trace::WorkloadProfile profile;
    unsigned fus = ~0u;
    std::uint64_t insts = 0;
    std::uint64_t seed = 0;
    cpu::CoreConfig base;

    /** The profile-store key (see store::SimKey). */
    std::string fingerprint() const;

    /** Execute the timing simulation (no cache interaction). */
    harness::WorkloadSim run() const;
};

/**
 * Shared phase-2 executor: fills the cells of every registered
 * SweepResult by fanning replay work across one thread pool. The
 * unit of parallelism is finer than a cell — one task per
 * (workload, kernel group) on the multi-point engine, each over the
 * workload's whole interval stream — so a one-workload sweep still
 * spreads across workers.
 *
 * Usage: add() every result — cells resized and sims filled — then
 * run() once. Results are bit-identical to api::evaluateProfile for
 * any thread count.
 */
class ReplayDriver
{
  public:
    ReplayDriver();
    ~ReplayDriver(); ///< out of line: EngineJob is incomplete here

    /** Register @p result for phase 2. The result's sims must
     * already be populated. */
    void add(SweepResult &result);

    /** Execute all registered phase-2 work; call once. A non-null
     * @p pool runs the fan-out on that persistent pool instead of
     * spawning @p threads workers. A non-null @p cancel is polled
     * at every task boundary: pending tasks become no-ops once it
     * returns true and run() throws CancelledError after the
     * in-flight tasks drain — cells may then be partially filled,
     * so the caller must discard the results. */
    void run(unsigned threads, ThreadPool *pool = nullptr,
             const std::function<bool()> *cancel = nullptr);

  private:
    struct EngineJob;

    std::vector<EngineJob> jobs_;
};

} // namespace detail

/** Executes SweepConfigs; stateless apart from the config. */
class SweepRunner
{
  public:
    /**
     * Validates @p config eagerly: unknown workloads, bad custom
     * profiles, unreadable imports, bad policy specs, a technology
     * point out of range, or a core config invalid at an FU count
     * phase 1 will simulate throw std::invalid_argument here, not
     * from a worker.
     */
    explicit SweepRunner(SweepConfig config);

    /** Run both phases as a one-runner BatchRunner batch (see
     * detail::runSweeps); deterministic for any thread count. */
    SweepResult run() const;

    /** The normalized config: defaults filled, names validated. */
    const SweepConfig &config() const { return config_; }

    /**
     * Phase-1 task of workload @p w, or std::nullopt when that
     * workload is import-backed (BatchRunner's dedup interface).
     */
    std::optional<detail::SimTask> simTask(std::size_t w) const;

    /** Pre-loaded sim of an import-backed workload, else nullptr. */
    const harness::WorkloadSim *importedSim(std::size_t w) const;

  private:
    const trace::WorkloadProfile &
    resolveWorkload(const std::string &name) const;

    SweepConfig config_;
    /** Workload name -> sim loaded from SweepConfig::imports. */
    std::map<std::string, harness::WorkloadSim> imported_;
};

} // namespace lsim::api

#endif // LSIM_API_SWEEP_HH
