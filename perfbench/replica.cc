#include "replica.hh"

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "api/batch.hh"
#include "api/experiment.hh"
#include "common/files.hh"
#include "common/json.hh"
#include "harness/experiment.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "replay/engine.hh"
#include "serve/spec.hh"
#include "store/serialize.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace lsim;

// ------------------------------------------------------------ SpanLog

SpanLog::SpanLog()
    : epoch_(std::chrono::steady_clock::now())
{
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanLog::begin(const char *name, const char *layer,
               std::uint64_t request, int parent)
{
    SpanRecord rec;
    rec.name = name;
    rec.layer = layer;
    rec.request = request;
    rec.parent = parent;
    rec.start_us = nowUs();
    MutexLock lock(mu_);
    rec.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(rec));
    return spans_.back().id;
}

void
SpanLog::end(int id, std::string tag, double value)
{
    const double now = nowUs();
    MutexLock lock(mu_);
    SpanRecord &rec = spans_.at(static_cast<std::size_t>(id));
    rec.end_us = now;
    rec.tag = std::move(tag);
    rec.value = value;
}

std::vector<SpanRecord>
SpanLog::spans() const
{
    MutexLock lock(mu_);
    return spans_;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ------------------------------------------------------------ Replica

namespace
{

/** A status.json-shaped document like the daemon's at @p state. */
std::string
statusDoc(const std::string &name, const char *state,
          std::size_t sweeps)
{
    std::ostringstream ss;
    JsonWriter w(ss);
    w.beginObject();
    w.field("spec", name);
    w.field("state", state);
    if (sweeps > 0)
        w.field("sweeps", static_cast<std::uint64_t>(sweeps));
    w.field("run_ms", 0.0);
    w.field("total_ms", 0.0);
    w.field("queued_at", obs::isoTimestampNow());
    w.endObject();
    ss << "\n";
    return ss.str();
}

/**
 * Decode a store entry from its file bytes: the framing ProfileStore
 * writes (magic, version, checksum, payload size), the checksum
 * check, then store::readWorkloadSim over the payload.
 */
harness::WorkloadSim
decodeEntry(const std::string &bytes)
{
    constexpr std::size_t kMagicBytes = 8;
    constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 8 + 8;
    if (bytes.size() < kHeaderBytes ||
        bytes.compare(0, kMagicBytes, "LSIMPROF") != 0)
        throw std::runtime_error("store entry: bad framing");
    std::istringstream header_is(bytes.substr(kMagicBytes, 20));
    store::BinaryReader header(header_is, 20);
    if (header.u32() != store::kFormatVersion)
        throw std::runtime_error("store entry: format version");
    const std::uint64_t checksum = header.u64();
    const std::uint64_t size = header.u64();
    if (size != bytes.size() - kHeaderBytes)
        throw std::runtime_error("store entry: payload size");
    store::Fnv1a actual;
    for (std::size_t i = kHeaderBytes; i < bytes.size(); ++i)
        actual.addByte(static_cast<std::uint8_t>(bytes[i]));
    if (actual.value() != checksum)
        throw std::runtime_error("store entry: checksum");
    std::istringstream payload_is(bytes.substr(kHeaderBytes));
    store::BinaryReader r(payload_is, size);
    (void)r.str(); // embedded key
    return store::readWorkloadSim(r);
}

/** Parse, as both daemon doors do (serve/spec.hh). */
api::BatchConfig
parseSpec(SpanLog &log, std::uint64_t request, int parent,
          const std::string &spec_text)
{
    Span span(log, "api.parse", "api", request, parent);
    return serve::batchConfigFromJson(parseJson(spec_text));
}

} // namespace

Replica::Replica(SpanLog &log, const std::string &store_dir,
                 std::string mirror_dir, unsigned threads)
    : log_(log), store_(store_dir), mirror_dir_(std::move(mirror_dir)),
      pool_(threads)
{
    fs::create_directories(mirror_dir_);
}

ReplicaOutput
Replica::run(std::uint64_t request, const std::string &spec_text,
             bool spool)
{
    ReplicaOutput out;
    // A fresh result directory per request, as the daemon makes one:
    // rewriting files left by the previous request would cost more.
    const std::string name = "r" + std::to_string(request);
    const fs::path result_dir = fs::path(mirror_dir_) / name;
    const std::string status_path = (result_dir / "status.json").string();
    std::vector<std::string> entry_keys; // read back after the root

    {
        Span root(log_, "replica.request", "bench", request, -1);
        const int rid = root.id();
        {
            Span span(log_, "serve.result_dir", "serve", request, rid);
            fs::create_directories(result_dir);
        }
        const auto writeStatus = [&](const char *state,
                                     std::size_t sweeps) {
            Span span(log_, "serve.status_write", "serve", request, rid);
            atomicWriteFile(status_path, statusDoc(name, state, sweeps));
        };

        // Admission (Daemon::submitRequest / admitSpool): the spool
        // door writes the queued status before it parses, the socket
        // door after it fingerprints.
        if (spool)
            writeStatus("queued", 0);
        {
            const api::BatchConfig admitted =
                parseSpec(log_, request, rid, spec_text);
            Span span(log_, "api.fingerprint", "api", request, rid);
            (void)api::batchFingerprint(admitted);
        }
        if (!spool)
            writeStatus("queued", 0);

        // Daemon::execute: parse again, validate (the BatchRunner
        // constructor builds one SweepRunner per sweep), run.
        api::BatchConfig batch =
            parseSpec(log_, request, rid, spec_text);
        std::vector<api::SweepRunner> runners;
        {
            Span span(log_, "api.validate", "api", request, rid);
            for (api::SweepConfig sweep : batch.sweeps) {
                sweep.cache_dir = store_.dir();
                sweep.threads = 1;
                runners.emplace_back(std::move(sweep));
            }
        }
        writeStatus("running", 0);

        // BatchRunner::run, phase by phase.
        std::vector<api::SweepResult> results(runners.size());
        {
            Span batch_span(log_, "api.batch", "api", request, rid);
            const int bid = batch_span.id();

            std::vector<api::detail::SimTask> unique;
            std::vector<std::string> keys;
            std::map<std::string, std::size_t> index_of;
            std::vector<std::vector<std::size_t>> refs(runners.size());
            for (std::size_t s = 0; s < runners.size(); ++s) {
                const auto &cfg = runners[s].config();
                for (std::size_t w = 0; w < cfg.workloads.size(); ++w) {
                    std::optional<api::detail::SimTask> task;
                    {
                        Span span(log_, "harness.task", "harness",
                                  request, bid);
                        task = runners[s].simTask(w);
                    }
                    if (!task)
                        throw std::runtime_error(
                            "replica: imported workloads unsupported");
                    ++out.requested_sims;
                    std::string key;
                    {
                        Span span(log_, "store.key", "store", request,
                                  bid);
                        key = task->fingerprint();
                    }
                    const auto [it, inserted] =
                        index_of.emplace(key, unique.size());
                    if (inserted) {
                        unique.push_back(std::move(*task));
                        keys.push_back(key);
                    }
                    refs[s].push_back(it->second);
                }
            }
            out.unique_sims = unique.size();

            std::vector<harness::WorkloadSim> sims(unique.size());
            std::vector<char> hit(unique.size(), 0);
            std::vector<std::size_t> runs(unique.size(), 0);
            {
                Span phase(log_, "batch.phase1", "api", request, bid);
                const int pid = phase.id();
                pool_.run(unique.size(), [&](std::size_t i) {
                    const api::detail::SimTask &task = unique[i];
                    {
                        Span span(log_, "store.load", "store", request,
                                  pid);
                        if (auto cached = store_.load(keys[i])) {
                            sims[i] = std::move(*cached);
                            hit[i] = 1;
                        }
                    }
                    if (hit[i])
                        return;
                    // SimTask::run through its public pieces:
                    // selection for fus "auto", the paper count for
                    // the default sentinel (~0u), then the core.
                    unsigned fus = task.fus;
                    if (fus == api::auto_select) {
                        Span span(log_, "harness.select", "harness",
                                  request, pid);
                        fus = harness::selectFuCount(task.profile,
                                                     task.insts,
                                                     task.base, 0.95,
                                                     task.seed)
                                  .chosen;
                        runs[i] += 4;
                        span.done(task.profile.name);
                    } else if (fus == ~0u) {
                        fus = task.profile.paper_fus;
                    }
                    {
                        Span span(log_, "cpu.sim", "cpu", request, pid);
                        sims[i] = harness::simulateWorkload(
                            task.profile, fus, task.insts, task.base,
                            task.seed);
                        runs[i] += 1;
                        span.done(
                            task.profile.name,
                            static_cast<double>(sims[i].sim.committed));
                    }
                    Span span(log_, "store.save", "store", request, pid);
                    store_.save(keys[i], sims[i]);
                });
            }
            for (std::size_t i = 0; i < unique.size(); ++i) {
                ++out.loads;
                out.hits += hit[i] ? 1 : 0;
                out.core_runs += runs[i];
            }
            entry_keys = keys;

            struct Job
            {
                std::size_t sweep;
                std::size_t workload;
                std::optional<replay::MultiPointReplay> engine;
            };
            std::vector<Job> jobs;
            for (std::size_t s = 0; s < runners.size(); ++s) {
                const auto &cfg = runners[s].config();
                api::SweepResult &res = results[s];
                res.workloads = cfg.workloads;
                res.technologies = cfg.technologies;
                res.policy_keys = cfg.policies;
                for (std::size_t w = 0; w < cfg.workloads.size(); ++w) {
                    res.sims.push_back(sims[refs[s][w]]);
                    jobs.push_back({s, w, std::nullopt});
                }
                res.cells.resize(cfg.workloads.size() *
                                 cfg.technologies.size());
                out.cells += res.cells.size() * cfg.policies.size();
            }

            // ReplayDriver::run: build engines, run every task,
            // finalize and scatter into cells.
            {
                Span phase(log_, "replay.build", "replay", request, bid);
                const int pid = phase.id();
                pool_.run(jobs.size(), [&](std::size_t j) {
                    Span span(log_, "replay.engine_build", "replay",
                              request, pid);
                    Job &job = jobs[j];
                    const api::SweepResult &res = results[job.sweep];
                    replay::ReplayOptions options;
                    options.chunk_intervals =
                        runners[job.sweep].config().chunk_intervals;
                    job.engine.emplace(
                        replay::IntervalSet::fromProfile(
                            res.sims[job.workload].idle),
                        res.technologies, res.policy_keys, options);
                });
            }
            std::vector<std::pair<std::size_t, std::size_t>> pieces;
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                const auto &engine = *jobs[j].engine;
                out.kernel_units += engine.numKernelUnits();
                out.fallback_units +=
                    engine.numUnits() - engine.numKernelUnits();
                for (std::size_t t = 0; t < engine.numTasks(); ++t)
                    pieces.emplace_back(j, t);
            }
            {
                Span phase(log_, "replay.run", "replay", request, bid);
                const int pid = phase.id();
                pool_.run(pieces.size(), [&](std::size_t i) {
                    Span span(log_, "replay.task", "replay", request,
                              pid);
                    jobs[pieces[i].first].engine->runTask(
                        pieces[i].second);
                });
            }
            {
                Span phase(log_, "replay.finalize", "replay", request,
                           bid);
                const int pid = phase.id();
                pool_.run(jobs.size(), [&](std::size_t j) {
                    Span span(log_, "replay.engine_finalize", "replay",
                              request, pid);
                    Job &job = jobs[j];
                    auto per_point = job.engine->finalize();
                    api::SweepResult &res = results[job.sweep];
                    const std::size_t num_tech =
                        res.technologies.size();
                    for (std::size_t t = 0; t < num_tech; ++t) {
                        api::SweepCell &cell =
                            res.cells[job.workload * num_tech + t];
                        cell.workload = job.workload;
                        cell.technology = t;
                        cell.policies = std::move(per_point[t]);
                    }
                });
            }
        }

        // Render once, deliver, final status, metrics snapshot.
        {
            Span span(log_, "api.render", "api", request, rid);
            for (const auto &sweep : results) {
                std::ostringstream csv, json;
                sweep.writeCsv(csv);
                sweep.writeJson(json);
                out.rendered.emplace_back(csv.str(), json.str());
            }
        }
        {
            Span span(log_, "serve.deliver", "serve", request, rid);
            for (std::size_t i = 0; i < out.rendered.size(); ++i) {
                const std::string stem =
                    (result_dir / ("sweep_" + std::to_string(i)))
                        .string();
                if (!atomicWriteFile(stem + ".csv",
                                     out.rendered[i].first) ||
                    !atomicWriteFile(stem + ".json",
                                     out.rendered[i].second))
                    throw std::runtime_error("replica: deliver failed");
            }
        }
        writeStatus("done", out.rendered.size());
        {
            Span span(log_, "serve.metrics_export", "serve", request,
                      rid);
            obs::MetricsRegistry::instance().exportFile(
                (fs::path(mirror_dir_) / "metrics.json").string());
        }
    }

    fs::remove_all(result_dir);

    // Outside the request: the store read path split into the file
    // read and the decode of the same bytes, for every entry the
    // request loaded or saved.
    for (const std::string &key : entry_keys) {
        const std::string path =
            (fs::path(store_.dir()) /
             (key + store::ProfileStore::kExtension))
                .string();
        std::string bytes;
        {
            Span span(log_, "store.read", "store", request, -1);
            bytes = readFile(path);
            span.done({}, static_cast<double>(bytes.size()));
        }
        out.bytes_read += bytes.size();
        Span span(log_, "store.decode", "store", request, -1);
        (void)decodeEntry(bytes);
    }
    return out;
}

} // namespace perfbench
