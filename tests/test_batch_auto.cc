/**
 * @file
 * The batch runner's `fus: auto` path: an auto task that misses the
 * store runs as four pooled simulations (1..4 FUs) and keeps the
 * chosen run. Its output must be byte-identical to the serial
 * reference (harness::selectFuCount, then harness::simulateWorkload
 * at the chosen count) at any thread count and on an injected pool,
 * alone, beside an explicit-count request for the same benchmark, or
 * through SweepRunner::run; the store must hold the chosen run under
 * the auto key; and a cancel mid-selection must save nothing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch.hh"
#include "api/parallel.hh"
#include "api/sweep.hh"
#include "harness/experiment.hh"
#include "obs/metrics.hh"
#include "store/profile_store.hh"
#include "trace/profile.hh"

namespace
{

namespace fs = std::filesystem;
using namespace lsim;
using namespace lsim::api;

constexpr std::uint64_t kInsts = 20000;
constexpr std::uint64_t kSeed = 3;

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lsim_batch_auto_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

SweepConfig
sweep(std::vector<std::string> workloads, unsigned fus)
{
    SweepConfig cfg;
    cfg.workloads = std::move(workloads);
    cfg.technologies = pSweep(0.05, 0.5, 3);
    cfg.insts = kInsts;
    cfg.seed = kSeed;
    cfg.fus = fus;
    return cfg;
}

/** (csv, json) of one sweep result. */
std::pair<std::string, std::string>
rendered(const SweepResult &result)
{
    std::ostringstream csv, json;
    result.writeCsv(csv);
    result.writeJson(json);
    return {csv.str(), json.str()};
}

/**
 * The serial reference for @p cfg: per workload, selectFuCount and
 * then simulateWorkload at the chosen count (or at cfg.fus when it is
 * explicit), replayed by the shared phase-2 driver.
 */
std::pair<std::string, std::string>
reference(const SweepConfig &cfg)
{
    SweepResult result;
    result.workloads = cfg.workloads;
    result.technologies = cfg.technologies;
    result.policy_keys = SweepRunner(cfg).config().policies;
    for (const std::string &name : cfg.workloads) {
        const auto &profile = trace::profileByName(name);
        const unsigned fus = cfg.fus != auto_select
            ? cfg.fus
            : harness::selectFuCount(profile, cfg.insts, cfg.base, 0.95,
                                     cfg.seed)
                  .chosen;
        result.sims.push_back(harness::simulateWorkload(
            profile, fus, cfg.insts, cfg.base, cfg.seed));
    }
    result.cells.resize(result.workloads.size() *
                        result.technologies.size());
    detail::ReplayDriver driver;
    driver.add(result);
    driver.run(1);
    return rendered(result);
}

std::uint64_t
coreRuns()
{
    return obs::counter("sim.core_runs").value();
}

/** One way of executing a batch: thread count, or an injected pool. */
struct Execution
{
    const char *name;
    unsigned threads;
    bool pool;
};

constexpr Execution kExecutions[] = {
    {"threads=1", 1, false},
    {"threads=4", 4, false},
    {"injected pool", 4, true},
};

BatchResult
runBatch(BatchConfig batch, const Execution &how, BatchEnv env = {})
{
    batch.threads = how.threads;
    if (!how.pool)
        return BatchRunner(batch).run(env);
    detail::ThreadPool pool(how.threads);
    env.pool = &pool;
    return BatchRunner(batch).run(env);
}

TEST(BatchAuto, AloneMatchesTheSerialReference)
{
    const SweepConfig automatic = sweep({"mcf", "gcc"}, auto_select);
    const auto expected = reference(automatic);
    for (const Execution &how : kExecutions) {
        SCOPED_TRACE(how.name);
        BatchConfig batch;
        batch.sweeps = {automatic};
        const std::uint64_t runs_before = coreRuns();
        const BatchResult result = runBatch(batch, how);
        EXPECT_EQ(coreRuns() - runs_before, 8u)
            << "four runs per auto benchmark, the chosen one kept";
        EXPECT_EQ(result.stats.sims_run, 2u);
        ASSERT_EQ(result.sweeps.size(), 1u);
        EXPECT_EQ(rendered(result.sweeps[0]), expected);
    }
}

TEST(BatchAuto, BesideAnExplicitCountMatchesTheSerialReference)
{
    const SweepConfig automatic = sweep({"mcf", "gcc"}, auto_select);
    const SweepConfig explicit_count = sweep({"mcf"}, 4);
    const auto expected_auto = reference(automatic);
    const auto expected_explicit = reference(explicit_count);
    for (const Execution &how : kExecutions) {
        SCOPED_TRACE(how.name);
        BatchConfig batch;
        batch.sweeps = {automatic, explicit_count};
        const std::uint64_t runs_before = coreRuns();
        const BatchResult result = runBatch(batch, how);
        EXPECT_EQ(coreRuns() - runs_before, 9u);
        EXPECT_EQ(result.stats.unique_sims, 3u)
            << "auto and explicit keys never dedup";
        ASSERT_EQ(result.sweeps.size(), 2u);
        EXPECT_EQ(rendered(result.sweeps[0]), expected_auto);
        EXPECT_EQ(rendered(result.sweeps[1]), expected_explicit);
    }
}

TEST(BatchAuto, SweepRunnerTakesThePooledPath)
{
    SweepConfig automatic = sweep({"mcf", "gcc"}, auto_select);
    const auto expected = reference(automatic);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        automatic.threads = threads;
        const std::uint64_t runs_before = coreRuns();
        const SweepResult result = SweepRunner(automatic).run();
        EXPECT_EQ(coreRuns() - runs_before, 8u);
        EXPECT_EQ(result.stats.sims_run, 2u);
        EXPECT_EQ(rendered(result), expected);
    }
}

TEST(BatchAuto, StoreKeepsOneEntryUnderTheAutoKey)
{
    const SweepConfig automatic = sweep({"mcf"}, auto_select);
    const std::string auto_key = SweepRunner(automatic).simTask(0)
                                     ->fingerprint();
    for (const Execution &how : kExecutions) {
        SCOPED_TRACE(how.name);
        BatchConfig batch;
        batch.sweeps = {automatic};
        batch.cache_dir = freshDir("store");

        std::uint64_t runs_before = coreRuns();
        const BatchResult cold = runBatch(batch, how);
        EXPECT_EQ(coreRuns() - runs_before, 4u);
        EXPECT_EQ(cold.stats.sims_run, 1u);
        EXPECT_EQ(cold.stats.cache_hits, 0u);

        const auto entries =
            store::ProfileStore(batch.cache_dir).list();
        ASSERT_EQ(entries.size(), 1u);
        EXPECT_EQ(entries[0].key, auto_key);
        EXPECT_EQ(entries[0].sim.num_fus, cold.sweeps[0].sims[0].num_fus);

        runs_before = coreRuns();
        const BatchResult warm = runBatch(batch, how);
        EXPECT_EQ(coreRuns() - runs_before, 0u);
        EXPECT_EQ(warm.stats.sims_run, 0u);
        EXPECT_EQ(warm.stats.cache_hits, 1u);
        EXPECT_EQ(rendered(warm.sweeps[0]), rendered(cold.sweeps[0]));
        EXPECT_EQ(store::ProfileStore(batch.cache_dir).list().size(),
                  1u);
    }
}

TEST(BatchAuto, CancelAfterTheFirstRunSavesNothing)
{
    for (const Execution &how : kExecutions) {
        SCOPED_TRACE(how.name);
        BatchConfig batch;
        batch.sweeps = {sweep({"mcf"}, auto_select)};
        batch.cache_dir = freshDir("cancel");
        const std::uint64_t runs_before = coreRuns();
        BatchEnv env;
        env.cancel = [runs_before] { return coreRuns() > runs_before; };
        EXPECT_THROW(runBatch(batch, how, env), CancelledError);
        EXPECT_TRUE(store::ProfileStore(batch.cache_dir).list().empty());
    }
}

} // namespace
