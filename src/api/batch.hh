/**
 * @file
 * Batched sweep execution with cross-request simulation dedup.
 *
 * Because every sweep's phase 2 is a pure function of its phase-1
 * IdleProfiles, any two SweepConfigs that agree on a workload's
 * (profile, fus, insts, seed, core config) can share one timing
 * simulation. BatchRunner exploits that: it collects the distinct
 * phase-1 tasks across all requests (consulting the profile store
 * first when a cache directory is set), fans the union across one
 * thread pool, then fans every request's replay grid across the same
 * pool. Each returned SweepResult is byte-identical — CSV and JSON —
 * to running its SweepConfig alone.
 *
 * A `fus = auto_select` task that misses the store runs as four
 * simulations (1..4 FUs) in that same pool run; the last to finish
 * applies harness::chooseFuCount and keeps the chosen run, which is
 * what the auto key stores.
 *
 * @code
 *   api::BatchConfig batch;
 *   batch.sweeps = {cfg_a, cfg_b};       // may share workloads
 *   batch.cache_dir = "/var/cache/lsim"; // optional persistence
 *   auto result = api::BatchRunner(batch).run();
 *   result.sweeps[0].writeCsv(...);
 *   // result.stats.unique_sims simulations served
 *   // result.stats.requested_sims requests
 * @endcode
 */

#ifndef LSIM_API_BATCH_HH
#define LSIM_API_BATCH_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "api/sweep.hh"

namespace lsim::store
{
class ProfileStore;
}

namespace lsim::api
{

namespace detail
{
class ThreadPool;
}

/** A set of sweep requests executed as one unit. */
struct BatchConfig
{
    std::vector<SweepConfig> sweeps;

    /**
     * Profile store directory shared by the whole batch; when
     * non-empty it overrides every sweep's own cache_dir. Empty
     * keeps each sweep's setting (typically none).
     */
    std::string cache_dir;

    /**
     * Worker threads for both phases; 0 = hardware concurrency.
     * Per-sweep `threads` values are ignored — the batch owns the
     * pool.
     */
    unsigned threads = 0;
};

/** How the batch's phase-1 work was served. */
struct BatchStats
{
    /** Phase-1 simulations the sweeps would run individually. */
    std::size_t requested_sims = 0;

    /** Distinct simulations after dedup. */
    std::size_t unique_sims = 0;

    /** Distinct simulations loaded from the profile store. */
    std::size_t cache_hits = 0;

    /** Distinct simulations actually executed (an auto task counts
     * once, though it takes four O3 runs). */
    std::size_t sims_run = 0;
};

/** Outcome of a batch: one SweepResult per request, in order. */
struct BatchResult
{
    std::vector<SweepResult> sweeps;
    BatchStats stats;
};

/**
 * Long-lived resources a caller may inject into a batch run. A
 * one-shot `lsim batch` leaves both null and the runner builds its
 * own; the serve daemon passes its persistent pool (no per-request
 * thread spawn) and its long-lived ProfileStore (one degraded flag
 * across requests).
 */
struct BatchEnv
{
    /** Used for every task whose cache dir equals store->dir()
     * (other dirs still get per-run instances). */
    store::ProfileStore *store = nullptr;

    /** Runs both phases when set; config threads are ignored. */
    detail::ThreadPool *pool = nullptr;

    /**
     * Cooperative cancel hook (per-request deadline, daemon
     * shutdown). Polled between phases and at every simulation /
     * replay task boundary: once it returns true, pending tasks
     * become no-ops, in-flight tasks finish, and run() throws
     * CancelledError instead of returning a partial result. Must be
     * callable from any pool thread.
     */
    std::function<bool()> cancel;
};

/**
 * Request-tier identity of a batch: a 16-hex-digit FNV-1a over
 * everything that determines the batch's *results* — per sweep, the
 * workload names, policy specs, technology grid, inline profiles
 * (full parameter sets, hashed like SimKey), import paths, insts,
 * seed, FU count and base core config — in sweep order. Execution
 * parameters (cache_dir, threads) are excluded: they change how a
 * batch runs, never what it produces.
 * Two requests agreeing on this fingerprint are guaranteed
 * byte-identical CSV/JSON output, so the serve tier collapses them
 * to one execution (phase-1 dedup lifted to the request tier).
 */
std::string batchFingerprint(const BatchConfig &config);

namespace detail
{

/**
 * The body of BatchRunner::run over already-validated runners, which
 * SweepRunner::run shares as a one-runner batch: phase 1 over the
 * deduped union of their simulations, each task reading and filling
 * the stores its runners' cache_dir names, then every runner's replay
 * grid. @p threads sizes the fan-out when env.pool is null.
 */
BatchResult runSweeps(std::span<const SweepRunner> runners,
                      unsigned threads, const BatchEnv &env);

} // namespace detail

/** Executes BatchConfigs; stateless apart from the config. */
class BatchRunner
{
  public:
    /**
     * Validates every sweep eagerly (same guarantees as
     * SweepRunner's constructor); throws std::invalid_argument on
     * the first bad request.
     */
    explicit BatchRunner(BatchConfig config);

    /** Run the batch; deterministic for any thread count. */
    BatchResult run() const;

    /** run() with injected resources; same results either way. */
    BatchResult run(const BatchEnv &env) const;

  private:
    BatchConfig config_;
    std::vector<SweepRunner> runners_;
};

} // namespace lsim::api

#endif // LSIM_API_BATCH_HH
