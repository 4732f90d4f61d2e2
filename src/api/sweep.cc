#include "api/sweep.hh"

#include <ostream>
#include <stdexcept>

#include "api/batch.hh"
#include "api/parallel.hh"
#include "common/csv.hh"
#include "common/json.hh"
#include "harness/report.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "replay/engine.hh"
#include "sleep/policy_registry.hh"
#include "store/profile_store.hh"

namespace lsim::api
{

std::vector<energy::ModelParams>
pSweep(double lo, double hi, unsigned steps, double alpha)
{
    if (steps == 0)
        throw std::invalid_argument("pSweep: steps must be >= 1");
    std::vector<energy::ModelParams> points;
    points.reserve(steps);
    for (unsigned i = 0; i < steps; ++i) {
        const double p = steps == 1
            ? lo
            : lo + (hi - lo) * static_cast<double>(i) /
                  static_cast<double>(steps - 1);
        points.push_back(analysisPoint(p, alpha));
    }
    return points;
}

const SweepCell &
SweepResult::cell(std::size_t workload, std::size_t technology) const
{
    return cells.at(workload * technologies.size() + technology);
}

harness::SuitePolicyAverages
SweepResult::averagesAt(std::size_t technology) const
{
    harness::SuitePolicyAverages avg;
    bool first = true;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const auto &results = cell(w, technology).policies;
        double no_overhead = 0.0;
        for (const auto &r : results)
            if (r.name == "NoOverhead")
                no_overhead = r.energy;
        if (no_overhead <= 0.0)
            throw std::invalid_argument(
                "SweepResult::averagesAt: needs a positive "
                "NoOverhead energy for '" +
                workloads[w] +
                "' (include the 'no-overhead' policy)");
        if (first) {
            for (const auto &r : results) {
                avg.names.push_back(r.name);
                avg.rel_to_nooverhead.push_back(0.0);
                avg.leakage_fraction.push_back(0.0);
            }
            first = false;
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
            avg.rel_to_nooverhead[i] +=
                results[i].energy / no_overhead;
            avg.leakage_fraction[i] += results[i].leakage_fraction;
        }
    }
    const auto n = static_cast<double>(workloads.size());
    for (std::size_t i = 0; i < avg.names.size(); ++i) {
        avg.rel_to_nooverhead[i] /= n;
        avg.leakage_fraction[i] /= n;
    }
    return avg;
}

std::string
SweepResult::toCsv() const
{
    std::string out;
    CsvWriter csv(out);
    detail::writePolicyCsvHeader(csv);
    for (const auto &c : cells)
        detail::writePolicyCsvRows(csv, workloads[c.workload],
                                   policy_keys, c.policies,
                                   technologies[c.technology]);
    return out;
}

std::string
SweepResult::toJson() const
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.beginArray("policies");
    for (const auto &key : policy_keys)
        w.value(key);
    w.endArray();
    w.beginArray("simulations");
    for (const auto &sim : sims) {
        w.beginObject();
        harness::writeSimJson(w, sim);
        w.endObject();
    }
    w.endArray();
    w.beginArray("cells");
    for (const auto &c : cells) {
        w.beginObject();
        w.field("benchmark", workloads[c.workload]);
        harness::writeTechnologyJson(w, technologies[c.technology]);
        harness::writePoliciesJson(w, c.policies);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out += '\n';
    return out;
}

void
SweepResult::writeCsv(std::ostream &os) const
{
    os << toCsv();
}

void
SweepResult::writeJson(std::ostream &os) const
{
    os << toJson();
}

// --------------------------------------------------------- detail

std::string
detail::SimTask::fingerprint() const
{
    store::SimKey key;
    key.profile = profile;
    key.fus = fus;
    key.insts = insts;
    key.seed = seed;
    key.base = base;
    return key.fingerprint();
}

harness::WorkloadSim
detail::SimTask::run() const
{
    auto builder = Experiment::builder()
                       .profile(profile)
                       .insts(insts)
                       .seed(seed)
                       .config(base);
    if (fus != ~0u)
        builder.fus(fus);
    return builder.session().sim();
}

// -------------------------------------------------- ReplayDriver

/** One workload's multi-point replay within one result. The engine
 * is built in run()'s parallel pre-stage, not in add(): flattening
 * the interval map and constructing per-point controller sets is
 * O(intervals + points) per workload, too much to serialize ahead
 * of the pool on wide grids. */
struct detail::ReplayDriver::EngineJob
{
    SweepResult *result;
    std::size_t workload;
    std::size_t chunk_intervals;
    std::optional<replay::MultiPointReplay> engine;
};

detail::ReplayDriver::ReplayDriver() = default;
detail::ReplayDriver::~ReplayDriver() = default;

void
detail::ReplayDriver::add(SweepResult &result,
                          const SweepConfig &config)
{
    for (std::size_t w = 0; w < result.workloads.size(); ++w)
        jobs_.push_back(
            {&result, w, config.chunk_intervals, std::nullopt});
}

void
detail::ReplayDriver::run(unsigned threads, ThreadPool *pool,
                          const std::function<bool()> *cancel)
{
    // Cooperative cancellation: polled at task boundaries only, so
    // a task in flight always completes and the pool never sees a
    // half-executed unit. Skipped tasks leave their cells stale —
    // throwing below tells the caller to discard the result.
    const auto cancelled = [cancel] {
        return cancel && *cancel && (*cancel)();
    };
    const auto throwIfCancelled = [&] {
        if (cancelled())
            throw CancelledError(
                "replay cancelled at a task boundary");
    };

    // Pre-stage: construct the engines in parallel (each writes only
    // its own slot). The runner constructors built every policy set
    // at every technology point, so construction cannot throw here.
    // Each stage is timed here, not in src/replay, which stays
    // clock-free.
    {
        obs::TraceSpan span("replay.build", "replay");
        obs::ScopedTimerMs timer(obs::histogram("replay.build_ms"));
        runOn(pool, jobs_.size(), threads, [&](std::size_t j) {
            if (cancelled())
                return;
            EngineJob &job = jobs_[j];
            replay::ReplayOptions options;
            options.chunk_intervals = job.chunk_intervals;
            job.engine.emplace(
                replay::IntervalSet::fromProfile(
                    job.result->sims[job.workload].idle),
                job.result->technologies, job.result->policy_keys,
                options);
        });
    }
    throwIfCancelled();

    // Kernel-vs-fallback coverage, read off the engines here so the
    // replay module itself stays free of the obs registry (and of
    // clocks — its determinism lint rule is textual).
    {
        std::uint64_t kernel = 0, fallback = 0, groups = 0;
        for (const auto &job : jobs_) {
            const std::size_t k = job.engine->numKernelUnits();
            kernel += k;
            fallback += job.engine->numUnits() - k;
            groups += job.engine->numKernelGroups();
        }
        obs::counter("replay.kernel_units").add(kernel);
        obs::counter("replay.fallback_units").add(fallback);
        obs::counter("replay.kernel_groups").add(groups);
        obs::counter("replay.engines")
            .add(static_cast<std::uint64_t>(jobs_.size()));
    }

    // One flat list over every registered result's (workload, chunk)
    // tasks, so a small sweep's work never waits on a big sweep's
    // phase, and one long simulation spreads across workers.
    struct Piece
    {
        std::size_t job;  ///< index into jobs_
        std::size_t task; ///< that job's engine task
    };
    std::vector<Piece> pieces;
    for (std::size_t j = 0; j < jobs_.size(); ++j)
        for (std::size_t t = 0; t < jobs_[j].engine->numTasks();
             ++t)
            pieces.push_back({j, t});

    {
        obs::TraceSpan span("replay.run", "replay");
        obs::ScopedTimerMs timer(obs::histogram("replay.run_ms"));
        runOn(pool, pieces.size(), threads, [&](std::size_t i) {
            if (cancelled())
                return;
            jobs_[pieces[i].job].engine->runTask(pieces[i].task);
        });
    }
    throwIfCancelled();

    // Merge + scatter into cells; independent per job.
    obs::TraceSpan span("replay.finalize", "replay");
    obs::ScopedTimerMs timer(obs::histogram("replay.finalize_ms"));
    runOn(pool, jobs_.size(), threads, [&](std::size_t j) {
        EngineJob &job = jobs_[j];
        auto results = job.engine->finalize();
        const std::size_t num_tech =
            job.result->technologies.size();
        for (std::size_t t = 0; t < num_tech; ++t) {
            SweepCell &cell =
                job.result->cells[job.workload * num_tech + t];
            cell.workload = job.workload;
            cell.technology = t;
            cell.policies = std::move(results[t]);
        }
    });
}

// ---------------------------------------------------- SweepRunner

SweepRunner::SweepRunner(SweepConfig config)
    : config_(std::move(config))
{
    // Custom profiles: validated, unique, and not shadowing the
    // Table 3 suite (a "gcc" that is secretly something else would
    // poison results and — worse — shared cache directories).
    for (const auto &profile : config_.profiles) {
        const std::string err = profile.validationError();
        if (!err.empty())
            throw std::invalid_argument("custom profile '" +
                                        profile.name + "': " + err);
        if (profile.name.empty())
            throw std::invalid_argument(
                "custom profiles need a non-empty name");
        std::size_t uses = 0;
        for (const auto &other : config_.profiles)
            uses += other.name == profile.name ? 1 : 0;
        if (uses != 1)
            throw std::invalid_argument("duplicate custom profile '" +
                                        profile.name + "'");
        for (const auto &t3 : trace::table3Profiles())
            if (t3.name == profile.name)
                throw std::invalid_argument(
                    "custom profile '" + profile.name +
                    "' shadows a Table 3 benchmark");
    }

    if (config_.workloads.empty()) {
        if (!config_.profiles.empty()) {
            for (const auto &p : config_.profiles)
                config_.workloads.push_back(p.name);
        } else {
            for (const auto &p : trace::table3Profiles())
                config_.workloads.push_back(p.name);
        }
    }

    // Imports join the grid as extra workloads, phase 1 pre-done.
    for (const auto &path : config_.imports) {
        store::ImportedSim entry;
        try {
            entry = store::importAnySim(path);
        } catch (const store::StoreError &err) {
            throw std::invalid_argument(err.what());
        }
        const std::string name = entry.sim.name;
        // Same shadowing rule as custom profiles: an import named
        // like a simulated workload would silently replace that
        // workload's timing simulation with the external data.
        for (const auto &existing : config_.workloads)
            if (existing == name)
                throw std::invalid_argument(
                    "imported workload '" + name + "' (" + path +
                    ") collides with a workload in this sweep");
        for (const auto &profile : config_.profiles)
            if (profile.name == name)
                throw std::invalid_argument(
                    "imported workload '" + name + "' (" + path +
                    ") shadows a custom profile");
        for (const auto &t3 : trace::table3Profiles())
            if (t3.name == name)
                throw std::invalid_argument(
                    "imported workload '" + name + "' (" + path +
                    ") shadows a Table 3 benchmark; rename it");
        if (!imported_.emplace(name, std::move(entry.sim)).second)
            throw std::invalid_argument(
                "duplicate imported workload '" + name + "'");
        config_.workloads.push_back(name);
    }

    if (config_.policies.empty())
        config_.policies = sleep::PolicyRegistry::paperSpecs();
    if (config_.technologies.empty())
        throw std::invalid_argument(
            "SweepRunner: no technology points (see pSweep())");

    // Fail fast, before any worker starts: on unknown names, on a
    // core config invalid at an FU count phase 1 will simulate, and
    // on a point where a policy set or energy model cannot be built.
    for (const auto &name : config_.workloads) {
        if (imported_.find(name) != imported_.end())
            continue;
        const trace::WorkloadProfile &profile = resolveWorkload(name);
        if (config_.fus == auto_select)
            for (unsigned n = 1; n <= 4; ++n)
                config_.base.withIntFus(n).validate();
        else
            config_.base
                .withIntFus(config_.fus == ~0u ? profile.paper_fus
                                               : config_.fus)
                .validate();
    }
    for (const auto &tech : config_.technologies) {
        tech.validate();
        sleep::PolicyRegistry::instance().makeSet(config_.policies,
                                                  tech);
    }
}

const trace::WorkloadProfile &
SweepRunner::resolveWorkload(const std::string &name) const
{
    for (const auto &p : config_.profiles)
        if (p.name == name)
            return p;
    for (const auto &p : trace::table3Profiles())
        if (p.name == name)
            return p;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::optional<detail::SimTask>
SweepRunner::simTask(std::size_t w) const
{
    const std::string &name = config_.workloads.at(w);
    if (imported_.find(name) != imported_.end())
        return std::nullopt;
    detail::SimTask task;
    task.profile = resolveWorkload(name);
    task.fus = config_.fus;
    task.insts = config_.insts;
    task.seed = config_.seed;
    task.base = config_.base;
    return task;
}

const harness::WorkloadSim *
SweepRunner::importedSim(std::size_t w) const
{
    const auto it = imported_.find(config_.workloads.at(w));
    return it == imported_.end() ? nullptr : &it->second;
}

SweepResult
SweepRunner::run() const
{
    // A one-runner batch: the same phase 1 (dedup, store, pooled
    // auto selection) and phase 2 as BatchRunner, on this runner's
    // already-validated config and imports.
    BatchResult batch = detail::runSweeps({this, 1}, config_.threads, {});
    SweepResult result = std::move(batch.sweeps.front());
    result.stats.sims_run = batch.stats.sims_run;
    result.stats.cache_hits = batch.stats.cache_hits;
    return result;
}

} // namespace lsim::api
