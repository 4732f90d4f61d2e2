#include "api/batch.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>

#include "api/parallel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/profile_store.hh"

namespace lsim::api
{

std::string
batchFingerprint(const BatchConfig &config)
{
    store::Fnv1a h;
    h.addU32(store::kFormatVersion);
    h.addU64(config.sweeps.size());
    for (const SweepConfig &sweep : config.sweeps) {
        h.addU64(sweep.workloads.size());
        for (const std::string &name : sweep.workloads)
            h.addString(name);
        h.addU64(sweep.technologies.size());
        for (const auto &tech : sweep.technologies) {
            h.addDouble(tech.p);
            h.addDouble(tech.k);
            h.addDouble(tech.s);
            h.addDouble(tech.alpha);
            h.addDouble(tech.duty);
        }
        h.addU64(sweep.policies.size());
        for (const std::string &policy : sweep.policies)
            h.addString(policy);
        h.addU64(sweep.profiles.size());
        for (const auto &profile : sweep.profiles)
            store::hashWorkloadProfile(h, profile);
        h.addU64(sweep.imports.size());
        for (const std::string &path : sweep.imports)
            h.addString(path);
        h.addU64(sweep.insts);
        h.addU64(sweep.seed);
        h.addU32(sweep.fus);
        store::hashCoreConfig(h, sweep.base);
        h.addU64(sweep.chunk_intervals);
    }
    return h.hex();
}

BatchRunner::BatchRunner(BatchConfig config)
    : config_(std::move(config))
{
    runners_.reserve(config_.sweeps.size());
    for (SweepConfig sweep : config_.sweeps) {
        if (!config_.cache_dir.empty())
            sweep.cache_dir = config_.cache_dir;
        // The batch owns the pool; per-sweep thread counts would
        // only matter if a runner executed alone.
        sweep.threads = 1;
        runners_.emplace_back(std::move(sweep));
    }
}

BatchResult
BatchRunner::run() const
{
    return run(BatchEnv{});
}

BatchResult
BatchRunner::run(const BatchEnv &env) const
{
    return detail::runSweeps(runners_, config_.threads, env);
}

BatchResult
detail::runSweeps(std::span<const SweepRunner> runners,
                  unsigned threads, const BatchEnv &env)
{
    // Cooperative cancellation: checked between phases here and at
    // task boundaries inside them, so a cancelled run abandons its
    // remaining work quickly but never tears a task in half.
    const auto cancelled = [&env] {
        return env.cancel && env.cancel();
    };
    const auto throwIfCancelled = [&](const char *where) {
        if (cancelled())
            throw CancelledError(std::string("batch cancelled ") +
                                 where);
    };

    BatchResult result;
    result.sweeps.resize(runners.size());
    throwIfCancelled("before phase 1");

    // Collect the distinct phase-1 tasks across every request.
    // fingerprint() covers exactly the simulation-determining state,
    // so it is the dedup identity as well as the store key.
    std::vector<detail::SimTask> unique;
    std::vector<std::string> unique_keys;
    // Per task, the distinct cache dirs of the sweeps that want it
    // (the batch-level override was already folded in by the
    // constructor, so these are the dirs each request agreed to).
    std::vector<std::vector<std::string>> task_dirs;
    std::map<std::string, std::size_t> index_of;
    // refs[s][w]: index into `unique`, or npos for imported sims.
    constexpr std::size_t npos = ~std::size_t{0};
    std::vector<std::vector<std::size_t>> refs(runners.size());

    for (std::size_t s = 0; s < runners.size(); ++s) {
        const SweepRunner &runner = runners[s];
        const std::size_t num_workloads =
            runner.config().workloads.size();
        refs[s].resize(num_workloads, npos);
        for (std::size_t w = 0; w < num_workloads; ++w) {
            auto task = runner.simTask(w);
            if (!task)
                continue;
            ++result.stats.requested_sims;
            const std::string key = task->fingerprint();
            const auto [it, inserted] =
                index_of.emplace(key, unique.size());
            if (inserted) {
                unique.push_back(std::move(*task));
                unique_keys.push_back(key);
                task_dirs.emplace_back();
            }
            const std::string &dir = runner.config().cache_dir;
            auto &dirs = task_dirs[it->second];
            if (!dir.empty() &&
                std::find(dirs.begin(), dirs.end(), dir) ==
                    dirs.end())
                dirs.push_back(dir);
            refs[s][w] = it->second;
        }
    }
    result.stats.unique_sims = unique.size();

    // One ProfileStore per distinct directory (creation validates
    // the path up front, before any simulation time is spent). A
    // caller-injected store is reused for its own directory so its
    // in-memory index stays the single instance across requests.
    std::map<std::string, store::ProfileStore *> stores;
    std::vector<std::unique_ptr<store::ProfileStore>> owned_stores;
    for (const auto &dirs : task_dirs)
        for (const auto &dir : dirs) {
            if (stores.count(dir))
                continue;
            if (env.store && env.store->dir() == dir) {
                stores.emplace(dir, env.store);
                continue;
            }
            owned_stores.push_back(
                std::make_unique<store::ProfileStore>(dir));
            stores.emplace(dir, owned_stores.back().get());
        }

    // Phase 1 over the deduped union. An explicit-count task is one
    // job: try every store its sweeps named, and on a miss simulate
    // once and install the result into all of them. An auto task is
    // looked up first; on a miss it becomes four jobs, one per FU
    // count, in the same pool run, and the last of them to finish
    // applies the Table 3 rule and saves the chosen run under the
    // auto key. Every save stays in the job that produced the sim.
    std::vector<harness::WorkloadSim> sims(unique.size());
    std::atomic<std::size_t> sims_run{0}, cache_hits{0};
    const auto loadCached = [&](std::size_t i) {
        for (const auto &dir : task_dirs[i]) {
            if (auto cached = stores.at(dir)->load(unique_keys[i])) {
                sims[i] = std::move(*cached);
                cache_hits.fetch_add(1);
                return true;
            }
        }
        return false;
    };
    const auto saveSim = [&](std::size_t i) {
        for (const auto &dir : task_dirs[i])
            stores.at(dir)->save(unique_keys[i], sims[i]);
    };
    {
        obs::TraceSpan span("batch.phase1_sim", "batch");
        obs::ScopedTimerMs timer(obs::histogram("batch.sim_ms"));

        // Auto tasks' lookups decide how many jobs the simulation
        // run has, so they run first, in parallel; a batch without a
        // stored auto task skips this pass.
        std::vector<std::size_t> auto_lookups;
        for (std::size_t i = 0; i < unique.size(); ++i)
            if (unique[i].fus == auto_select && !task_dirs[i].empty())
                auto_lookups.push_back(i);
        std::vector<char> auto_hit(unique.size(), 0);
        detail::runOn(env.pool, auto_lookups.size(), threads,
                      [&](std::size_t a) {
            if (!cancelled())
                auto_hit[auto_lookups[a]] = loadCached(auto_lookups[a]);
        });

        struct AutoRuns
        {
            harness::WorkloadSim sims[4];
            std::atomic<unsigned> remaining{4};
        };
        struct Job
        {
            std::size_t task;
            unsigned fus;              ///< 1..4 for an auto run
            AutoRuns *runs = nullptr;  ///< null: the task as requested
        };
        std::deque<AutoRuns> pending; // stable addresses
        std::vector<Job> jobs;
        for (std::size_t i = 0; i < unique.size(); ++i) {
            if (unique[i].fus != auto_select) {
                jobs.push_back({i, 0});
            } else if (!auto_hit[i]) {
                AutoRuns &runs = pending.emplace_back();
                for (unsigned n = 1; n <= 4; ++n)
                    jobs.push_back({i, n, &runs});
            }
        }

        detail::runOn(env.pool, jobs.size(), threads,
                      [&](std::size_t j) {
            if (cancelled())
                return; // task boundary: abandon, don't tear
            const Job &job = jobs[j];
            const std::size_t i = job.task;
            if (!job.runs) {
                if (loadCached(i))
                    return;
                sims[i] = unique[i].run();
            } else {
                const SimTask &task = unique[i];
                job.runs->sims[job.fus - 1] = harness::simulateWorkload(
                    task.profile, job.fus, task.insts, task.base,
                    task.seed);
                // Only the last of the four completes the task, and
                // not once the batch is cancelled.
                if (job.runs->remaining.fetch_sub(1) != 1 ||
                    cancelled())
                    return;
                double ipc_by_fus[4];
                for (unsigned n = 0; n < 4; ++n)
                    ipc_by_fus[n] = job.runs->sims[n].sim.ipc;
                const unsigned chosen =
                    harness::chooseFuCount(ipc_by_fus).chosen;
                sims[i] = std::move(job.runs->sims[chosen - 1]);
                for (auto &run : job.runs->sims)
                    run = {}; // free the three not kept
            }
            sims_run.fetch_add(1);
            saveSim(i);
        });
    }
    result.stats.sims_run = sims_run.load();
    result.stats.cache_hits = cache_hits.load();
    throwIfCancelled("between phases");

    obs::counter("batch.requested_sims")
        .add(result.stats.requested_sims);
    obs::counter("batch.unique_sims").add(result.stats.unique_sims);
    // Phase-1 dedup: requests that collapsed onto an already-listed
    // fingerprint before any store lookup happened.
    obs::counter("batch.dedup_hits")
        .add(result.stats.requested_sims - result.stats.unique_sims);
    obs::counter("batch.store_hits").add(result.stats.cache_hits);
    obs::counter("batch.store_misses").add(result.stats.sims_run);

    // Assemble each request's result skeleton from the shared sims.
    for (std::size_t s = 0; s < runners.size(); ++s) {
        const SweepConfig &cfg = runners[s].config();
        SweepResult &out = result.sweeps[s];
        out.workloads = cfg.workloads;
        out.technologies = cfg.technologies;
        out.policy_keys = cfg.policies;
        out.sims.resize(cfg.workloads.size());
        out.cells.resize(cfg.workloads.size() *
                         cfg.technologies.size());
        for (std::size_t w = 0; w < cfg.workloads.size(); ++w) {
            if (refs[s][w] == npos) {
                out.sims[w] = *runners[s].importedSim(w);
                ++out.stats.imported;
            } else {
                out.sims[w] = sims[refs[s][w]];
            }
        }
    }

    // Phase 2: the shared driver flattens every request's replay
    // grid into one task list — multi-point engine jobs per
    // (workload, chunk) — so a small sweep's cells never wait on a
    // big sweep's phase.
    detail::ReplayDriver driver;
    for (std::size_t s = 0; s < result.sweeps.size(); ++s)
        driver.add(result.sweeps[s], runners[s].config());
    {
        obs::TraceSpan span("batch.phase2_replay", "batch");
        obs::ScopedTimerMs timer(
            obs::histogram("batch.replay_ms"));
        driver.run(threads, env.pool,
                   env.cancel ? &env.cancel : nullptr);
    }
    return result;
}

} // namespace lsim::api
