/**
 * @file
 * lsim's end-to-end benchmark: drives an in-process serve::Daemon
 * through one named workload with closed-loop clients, checks every
 * delivered result byte for byte against an in-process
 * api::BatchRunner, and prints its metrics with their units. The
 * last stdout line is one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"latency_p50_ms": {"value": 1.02, "unit": "ms"}, ...}}
 *
 * Usage (perfbench/run.py builds and calls this; see README.md):
 *
 *   lsim_perfbench --workload warm_rpc --seed 1 --seconds 10
 *                  --trace 0 --workdir DIR
 *   lsim_perfbench --selftest
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 spends half the
 * time untraced and half traced — each traced request is replayed
 * through the spanned Replica (replica.hh) — and reports the
 * per-layer metrics plus how much of the untraced median they leave
 * unexplained.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hh"
#include "api/parallel.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "replica.hh"
#include "serve/daemon.hh"
#include "serve/socket.hh"
#include "serve/spec.hh"
#include "stats.hh"
#include "store/serialize.hh"
#include "trace/profile.hh"

namespace
{

using namespace lsim;
using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** Instructions per simulation of the warm fixture. */
constexpr std::uint64_t kWarmInsts = 200'000;
/** Instructions per simulation of a cold request. */
constexpr std::uint64_t kColdInsts = 50'000;
/** Instructions of the warm-up request's (pre-filled) simulation. */
constexpr std::uint64_t kWarmupInsts = 20'000;
/** Daemon constructions per run; setup_s is their median. */
constexpr unsigned kSetups = 25;
/** Completed requests the untraced loop waits for, past --seconds if
 * need be, so latency_p90_ms has ten samples beyond it. */
constexpr std::size_t kMinSamples = 100;
/** Request indices of the traced half start here, so cold specs
 * (seeded by index) never repeat an untraced request's. */
constexpr std::size_t kTracedBase = 1'000'000;

constexpr const char *kColdBenchmarks[] = {"mcf", "health", "gcc",
                                           "vortex"};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** A seed derived from the workload seed; below 2^53 so it survives
 * the spec's JSON number round trip exactly. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return splitmix64(seed * 0x100000001b3ull + stream) >> 11;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + quoted(items[i]);
    return out + "]";
}

std::vector<std::string>
table3Names()
{
    std::vector<std::string> names;
    for (const auto &p : trace::table3Profiles())
        names.push_back(p.name);
    return names;
}

// ------------------------------------------------------------ workloads

/** One named workload: its door, clients, fixture and request specs. */
struct Plan
{
    std::string name;
    bool socket = true;         ///< socket door, else the spool
    unsigned clients = 1;
    bool cold = false;          ///< every request simulates
    std::size_t period = 0;     ///< distinct specs per client; 0 = all
    std::size_t digest_prefix = 2; ///< requests per client digested
    std::string fixture_spec;   ///< pre-fills the store (untimed)
    std::string warmup_spec;    ///< the setup_s request
    std::function<std::string(unsigned, std::size_t)> spec;
};

Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    const std::vector<std::string> names = table3Names();
    // The warm store holds the nine benchmarks at kFixtureSeeds
    // seeds, so a metric over its simulations (ipc_error_pct) does
    // not hinge on one seed.
    constexpr std::size_t kFixtureSeeds = 3;
    std::vector<std::string> warm_sweeps; // "insts"/"seed" per seed
    for (std::size_t k = 0; k < kFixtureSeeds; ++k)
        warm_sweeps.push_back(
            "\"insts\": " + std::to_string(kWarmInsts) + ", \"seed\": " +
            std::to_string(deriveSeed(seed, 1 + k)));
    const std::string warmup_sweep =
        "{\"benchmarks\": [\"gzip\"], \"steps\": 1, \"insts\": " +
        std::to_string(kWarmupInsts) +
        ", \"seed\": " + std::to_string(deriveSeed(seed, 1)) + "}";

    Plan plan;
    plan.name = workload;
    plan.warmup_spec = "{\"sweeps\": [" + warmup_sweep + "]}";
    plan.fixture_spec = plan.warmup_spec;
    std::string warm_fixture = "{\"sweeps\": [" + warmup_sweep;
    for (const std::string &sweep : warm_sweeps)
        warm_fixture += ", {\"benchmarks\": " + jsonList(names) +
                        ", \"steps\": 1, " + sweep + "}";
    warm_fixture += "]}";

    if (workload == "warm_rpc") {
        plan.clients = 2;
        plan.period = names.size() * kFixtureSeeds;
        plan.digest_prefix = plan.period;
        plan.fixture_spec = warm_fixture;
        const std::size_t offset = seed % names.size();
        plan.spec = [=](unsigned c, std::size_t i) {
            // Different p_max per client: never one fingerprint,
            // always the same store entries.
            return "{\"sweeps\": [{\"benchmarks\": [" +
                   quoted(names[(i + offset) % names.size()]) +
                   "], \"steps\": 8, \"p_max\": " +
                   (c == 0 ? "1.0" : "0.9") + ", " +
                   warm_sweeps[i / names.size() % kFixtureSeeds] +
                   "}]}";
        };
    } else if (workload == "warm_grid") {
        plan.socket = false;
        plan.period = kFixtureSeeds;
        plan.digest_prefix = kFixtureSeeds;
        plan.fixture_spec = warm_fixture;
        const std::string policies = jsonList(
            {"max-sleep", "gradual", "always-active", "no-overhead",
             "timeout:64", "oracle", "adaptive"});
        plan.spec = [=](unsigned, std::size_t i) {
            // Every request replays all 27 stored simulations (one
            // sweep per fixture seed, 34 points each: about the nine
            // benchmarks x 100 points of one seed), so requests cost
            // the same and only p_min rotates.
            static const char *const kPMin[] = {"0.05", "0.06", "0.07"};
            std::string spec = "{\"sweeps\": [";
            for (std::size_t k = 0; k < kFixtureSeeds; ++k)
                spec += std::string(k ? ", " : "") + "{\"benchmarks\": " +
                        jsonList(names) + ", \"policies\": " + policies +
                        ", \"steps\": 34, \"p_min\": " +
                        kPMin[i % kFixtureSeeds] + ", " + warm_sweeps[k] +
                        "}";
            return spec + "]}";
        };
    } else if (workload == "cold_sim" || workload == "cold_auto") {
        plan.cold = true;
        const bool automatic = workload == "cold_auto";
        plan.spec = [=](unsigned, std::size_t i) {
            const std::string tail =
                ", \"steps\": 8, \"insts\": " +
                std::to_string(kColdInsts) + ", \"seed\": " +
                std::to_string(deriveSeed(seed, 1000 + i)) + "}";
            if (!automatic)
                return "{\"sweeps\": [{\"benchmarks\": " +
                       jsonList({kColdBenchmarks[0], kColdBenchmarks[1],
                                 kColdBenchmarks[2],
                                 kColdBenchmarks[3]}) +
                       tail + "]}";
            return "{\"sweeps\": [{\"benchmarks\": [\"mcf\", \"gcc\"], "
                   "\"fus\": \"auto\"" +
                   tail + ", {\"benchmarks\": [\"health\", \"vortex\"]" +
                   tail + "]}";
        };
    } else {
        throw std::invalid_argument("unknown workload '" + workload +
                                    "' (warm_rpc, warm_grid, cold_sim, "
                                    "cold_auto)");
    }
    return plan;
}

// ------------------------------------------------------------ references

using Rendered = std::vector<std::pair<std::string, std::string>>;

/** One simulation of a delivered result, as the reference saw it. */
struct SimInfo
{
    std::string name;
    double ipc = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
};

/** In-process BatchRunner output for one spec. */
struct Reference
{
    Rendered rendered;
    std::vector<SimInfo> sims;
    std::uint64_t committed = 0;
};

Reference
computeReference(const std::string &spec)
{
    api::BatchConfig batch = serve::batchConfigFromJson(parseJson(spec));
    batch.threads = 1;
    const api::BatchResult result = api::BatchRunner(batch).run();
    Reference ref;
    for (const auto &sweep : result.sweeps) {
        std::ostringstream csv, json;
        sweep.writeCsv(csv);
        sweep.writeJson(json);
        ref.rendered.emplace_back(csv.str(), json.str());
        for (const auto &sim : sweep.sims) {
            ref.sims.push_back({sim.name, sim.sim.ipc, sim.sim.cycles,
                                sim.sim.committed});
            ref.committed += sim.sim.committed;
        }
    }
    return ref;
}

Rendered
readDelivered(const fs::path &dir, std::size_t sweeps)
{
    Rendered out;
    for (std::size_t i = 0; i < sweeps; ++i) {
        const fs::path stem = dir / ("sweep_" + std::to_string(i));
        out.emplace_back(readFile(stem.string() + ".csv"),
                         readFile(stem.string() + ".json"));
    }
    return out;
}

// ------------------------------------------------------------ the run

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;
};

/** One request as the client saw it. */
struct RequestRecord
{
    std::size_t index = 0;
    bool done = false;
    bool verified = false;
    double latency_ms = 0.0;
    std::size_t sweeps = 0;
    Rendered delivered;             ///< the digested prefix only
    const Reference *ref = nullptr; ///< once verified
};

std::string
requestName(unsigned client, std::size_t index)
{
    return "r" + std::to_string(client) + "_" + std::to_string(index);
}

/** A traced request: client timing, daemon status, replica output. */
struct TracedRecord
{
    std::uint64_t request = 0;
    double rtt_ms = 0.0;
    double run_ms = 0.0;
    double total_ms = 0.0;
    std::size_t output_bytes = 0;
    ReplicaOutput replica; ///< rendered bytes dropped once compared
};

/** A live daemon plus, for the socket door, its pump thread. */
class LiveDaemon
{
  public:
    LiveDaemon(serve::ServeConfig cfg, bool socket)
    {
        cfg.stop = [this] { return stop_.load(); };
        daemon_ = std::make_unique<serve::Daemon>(std::move(cfg));
        if (socket)
            pump_ = std::thread([this] { daemon_->run(); });
    }

    /** Stop the pump, then destroy the daemon (its store flushes its
     * index) — always before anything deletes its directories. */
    ~LiveDaemon()
    {
        stop_.store(true);
        if (pump_.joinable())
            pump_.join();
        daemon_.reset();
    }

    LiveDaemon(const LiveDaemon &) = delete;
    LiveDaemon &operator=(const LiveDaemon &) = delete;

    serve::Daemon &daemon() { return *daemon_; }

  private:
    std::atomic<bool> stop_{false};
    std::unique_ptr<serve::Daemon> daemon_;
    std::thread pump_;
};

/** The daemon's answer to one request. */
struct Answer
{
    Outcome outcome = Outcome::Failed;
    double run_ms = 0.0;
    double total_ms = 0.0;
    std::size_t sweeps = 0;
};

Answer
readTerminal(const std::string &line)
{
    Answer a;
    const JsonValue doc = parseJson(line);
    if (doc.at("state").asString() != "done")
        return a;
    if (doc.find("coalesced_with"))
        return a; // the workloads are built never to coalesce
    a.outcome = Outcome::Done;
    a.run_ms = doc.at("run_ms").asNumber();
    a.total_ms = doc.at("total_ms").asNumber();
    a.sweeps = static_cast<std::size_t>(doc.at("sweeps").asU64());
    return a;
}

/** Submit over the socket and wait (`lsim submit --wait`). */
Answer
submitSocket(const std::string &socket_path, const std::string &name,
             const std::string &spec)
{
    const serve::ClientResult res =
        serve::socketSubmit(socket_path, name, spec, 0, true, 120.0);
    if (!res.ok || res.lines.empty())
        throw std::runtime_error("socket submit: " + res.error);
    const JsonValue ack = parseJson(res.lines.front());
    if (ack.at("state").asString() == "rejected") {
        Answer a;
        a.outcome = Outcome::Rejected;
        return a;
    }
    if (res.lines.size() < 2)
        return {};
    return readTerminal(res.lines.back());
}

/** Drop a spec into the spool (temp name, then rename) and drain. */
Answer
submitSpool(serve::Daemon &daemon, const std::string &spool_dir,
            const std::string &name, const std::string &spec)
{
    const fs::path tmp = fs::path(spool_dir) / (name + ".json.tmp");
    {
        std::ofstream out(tmp, std::ios::binary);
        out << spec;
        if (!out)
            throw std::runtime_error("cannot write " + tmp.string());
    }
    fs::rename(tmp, fs::path(spool_dir) / (name + ".json"));
    daemon.drainOnce();
    return readTerminal(
        readFile((fs::path(daemon.resultsDir()) / name / "status.json")
                     .string()));
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", static_cast<std::uint64_t>(attempted));
    w.field("failed", static_cast<std::uint64_t>(failed));
    w.beginObject("metrics");
    for (const Metric &m : metrics) {
        w.beginObject(m.name);
        w.field("value", std::isfinite(m.value) ? m.value : 0.0);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::string line = os.str();
    line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

// ------------------------------------------------------- trace analysis

/** Wall-clock union of intervals, ms. */
double
unionMs(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto &[lo, hi] : iv) {
        if (hi <= lo)
            continue;
        if (lo > cur_hi) {
            if (cur_hi > cur_lo)
                total += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
        } else {
            cur_hi = std::max(cur_hi, hi);
        }
    }
    if (cur_hi > cur_lo)
        total += cur_hi - cur_lo;
    return total / 1000.0;
}

/**
 * Attribute span @p id's duration to layers: its self time (the part
 * no child covers) to its own layer, the covered part to its
 * children's subtrees, split by their busy time when they overlap
 * (pool tasks), so the shares always sum to the span's duration.
 */
void
attribute(const std::vector<SpanRecord> &spans,
          const std::vector<std::vector<int>> &kids, int id,
          double weight, std::map<std::string, double> &layers)
{
    const SpanRecord &s = spans[static_cast<std::size_t>(id)];
    const auto &children = kids[static_cast<std::size_t>(id)];
    if (children.empty()) {
        layers[s.layer] += weight * s.ms();
        return;
    }
    std::vector<std::pair<double, double>> iv;
    double busy = 0.0;
    for (const int c : children) {
        const SpanRecord &k = spans[static_cast<std::size_t>(c)];
        iv.emplace_back(k.start_us, k.end_us);
        busy += k.ms();
    }
    const double covered = std::min(unionMs(iv), s.ms());
    layers[s.layer] += weight * std::max(0.0, s.ms() - covered);
    if (busy > 0.0)
        for (const int c : children)
            attribute(spans, kids, c, weight * covered / busy, layers);
}

// --------------------------------------------------------------- main run

int
runWorkload(const Options &opt)
{
    setInformEnabled(false);
    const Plan plan = makePlan(opt.workload, opt.seed);
    fs::create_directories(opt.workdir);
    fs::current_path(opt.workdir);

    const unsigned threads =
        std::max(1u, std::thread::hardware_concurrency());
    std::printf("host nproc=%u compiler=\"%s\" build=%s workload=%s "
                "seed=%llu seconds=%g trace=%d\n",
                threads, __VERSION__, PERFBENCH_BUILD_TYPE,
                plan.name.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    SpanLog log;

    // Fixture: pre-fill the store through the same direct calls the
    // traced replica makes (untimed; reported as fixture.fill_s).
    const auto fill_start = Clock::now();
    {
        Replica fill(log, "store", "fixture_mirror", threads);
        fill.run(0, plan.fixture_spec, !plan.socket);
    }
    const double fixture_fill_s = secondsSince(fill_start);
    if (opt.trace)
        fs::copy("store", "store_replica", fs::copy_options::recursive);

    // References for the warm workloads: every distinct spec once.
    std::map<std::string, Reference> refs;
    if (!plan.cold) {
        std::vector<std::string> distinct;
        for (unsigned c = 0; c < plan.clients; ++c)
            for (std::size_t i = 0; i < plan.period; ++i)
                distinct.push_back(plan.spec(c, i));
        std::vector<Reference> computed(distinct.size());
        api::detail::parallelFor(distinct.size(), threads,
                                 [&](std::size_t i) {
            computed[i] = computeReference(distinct[i]);
        });
        for (std::size_t i = 0; i < distinct.size(); ++i)
            refs.emplace(distinct[i], std::move(computed[i]));
    }

    // Flush what the fixture (and anything before this run) left
    // dirty, so every run's daemon starts on an idle disk.
    ::sync();

    // Set-up: construct the daemon (store and index open, pool
    // start, socket bind) through its first warm-up response; the
    // last of kSetups daemons serves the load. The untimed sync
    // before each one writes back what the previous set-up left
    // dirty; without it every set-up runs slower than the one before.
    std::vector<double> setup_s;
    std::unique_ptr<LiveDaemon> live;
    std::string spool_dir, socket_path;
    for (unsigned k = 0; k < kSetups; ++k) {
        live.reset();
        ::sync();
        serve::ServeConfig cfg;
        spool_dir = "spool" + std::to_string(k);
        cfg.spool_dir = spool_dir;
        cfg.cache_dir = "store";
        cfg.threads = threads;
        if (plan.socket) {
            socket_path = "s" + std::to_string(k) + ".sock";
            cfg.socket_path = socket_path;
        }
        const auto start = Clock::now();
        live = std::make_unique<LiveDaemon>(cfg, plan.socket);
        const Answer a =
            plan.socket
                ? submitSocket(socket_path, "warmup", plan.warmup_spec)
                : submitSpool(live->daemon(), spool_dir, "warmup",
                              plan.warmup_spec);
        setup_s.push_back(secondsSince(start));
        if (a.outcome != Outcome::Done)
            throw std::runtime_error("warm-up request failed");
    }
    serve::Daemon &daemon = live->daemon();
    const fs::path results_dir = daemon.resultsDir();

    std::vector<std::vector<RequestRecord>> records(plan.clients);
    std::vector<std::vector<TracedRecord>> traced(plan.clients);
    std::vector<std::unique_ptr<Replica>> replicas;
    if (opt.trace)
        for (unsigned c = 0; c < plan.clients; ++c)
            replicas.push_back(std::make_unique<Replica>(
                log, "store_replica", "mirror" + std::to_string(c),
                threads));
    std::atomic<std::size_t> mismatches{0};
    // Per client: time spent after each reply reading, comparing and
    // deleting results — the benchmark's work, not the daemon's.
    std::vector<double> verify_s(plan.clients, 0.0);

    const auto makeFn = [&](bool tracing, std::size_t base) {
        return [&, tracing, base](unsigned c, std::size_t i,
                                  double *latency) -> Outcome {
            const std::size_t index = base + i;
            const std::string name = requestName(c, index);
            const std::string spec = plan.spec(c, index);
            RequestRecord &rec = records[c].emplace_back();
            rec.index = index;
            try {
                const auto start = Clock::now();
                const Answer a =
                    plan.socket
                        ? submitSocket(socket_path, name, spec)
                        : submitSpool(daemon, spool_dir, name, spec);
                *latency = secondsSince(start) * 1000.0;
                if (a.outcome != Outcome::Done)
                    return a.outcome;
                const auto answered = Clock::now();
                const auto checked = [&](Outcome outcome) {
                    verify_s[c] += secondsSince(answered);
                    return outcome;
                };
                rec.latency_ms = *latency;
                rec.sweeps = a.sweeps;
                const fs::path dir = results_dir / name;
                Rendered delivered = readDelivered(dir, a.sweeps);
                if (!plan.cold) {
                    // A warm run writes thousands of result
                    // directories; left in place they slow every
                    // later file operation. Cold results stay for the
                    // check after the window.
                    fs::remove_all(dir);
                    const Reference &ref = refs.at(spec);
                    if (delivered != ref.rendered) {
                        mismatches.fetch_add(1);
                        return checked(Outcome::Failed);
                    }
                    rec.verified = true;
                    rec.ref = &ref;
                }
                if (tracing) {
                    TracedRecord tr;
                    tr.request = (c + 1) * 10'000'000ull + index;
                    tr.rtt_ms = *latency;
                    tr.run_ms = a.run_ms;
                    tr.total_ms = a.total_ms;
                    tr.replica =
                        replicas[c]->run(tr.request, spec, !plan.socket);
                    if (tr.replica.rendered != delivered) {
                        mismatches.fetch_add(1);
                        return checked(Outcome::Failed);
                    }
                    for (const auto &[csv, json] : tr.replica.rendered)
                        tr.output_bytes += csv.size() + json.size();
                    tr.replica.rendered = {};
                    traced[c].push_back(std::move(tr));
                }
                if (index < plan.digest_prefix)
                    rec.delivered = std::move(delivered);
                rec.done = true;
                return checked(Outcome::Done);
            } catch (const std::exception &err) {
                std::fprintf(stderr, "perfbench: request %s: %s\n",
                             name.c_str(), err.what());
                return Outcome::Failed;
            }
        };
    };

    const double hard_limit = opt.seconds * 3.0 + 10.0;
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const LoopResult loop = runClosedLoop(
        plan.clients, untraced_s,
        std::max(plan.digest_prefix,
                 (kMinSamples + plan.clients - 1) / plan.clients),
        hard_limit, makeFn(false, 0));
    double daemon_wall_s = loop.wall_s;
    for (const double s : verify_s)
        daemon_wall_s -= s / plan.clients;
    LoopResult traced_loop;
    if (opt.trace)
        traced_loop = runClosedLoop(plan.clients, opt.seconds / 2, 1,
                                    hard_limit, makeFn(true, kTracedBase));
    const serve::ServeStats daemon_stats = daemon.stats();
    live.reset(); // daemons go before their directories
    replicas.clear();

    // Cold requests: verify against fresh in-process references,
    // reading the delivered files back from disk.
    std::vector<Reference> cold_refs;
    if (plan.cold) {
        std::vector<std::pair<unsigned, RequestRecord *>> todo;
        for (unsigned c = 0; c < plan.clients; ++c)
            for (auto &rec : records[c])
                if (rec.done)
                    todo.emplace_back(c, &rec);
        cold_refs.resize(todo.size());
        api::detail::parallelFor(todo.size(), threads,
                                 [&](std::size_t i) {
            const auto [c, rec] = todo[i];
            cold_refs[i] = computeReference(plan.spec(c, rec->index));
            const Rendered delivered = readDelivered(
                results_dir / requestName(c, rec->index), rec->sweeps);
            const bool same = cold_refs[i].rendered == delivered;
            cold_refs[i].rendered = {}; // keep the peak RSS flat
            if (!same) {
                mismatches.fetch_add(1);
                return;
            }
            rec->verified = true;
            rec->ref = &cold_refs[i];
        });
    }

    // Digest of the delivered bytes of each client's first requests
    // (a fixed prefix, so it repeats exactly for a seed).
    store::Fnv1a digest;
    bool prefix_ok = true;
    std::uint64_t prefix_cycles = 0, prefix_insts = 0;
    for (unsigned c = 0; c < plan.clients; ++c) {
        for (std::size_t i = 0; i < plan.digest_prefix; ++i) {
            const RequestRecord *rec =
                i < records[c].size() ? &records[c][i] : nullptr;
            if (!rec || rec->index != i || !rec->done ||
                !rec->verified) {
                prefix_ok = false;
                continue;
            }
            for (const auto &[csv, json] : rec->delivered) {
                digest.addString(csv);
                digest.addString(json);
            }
            for (const SimInfo &s : rec->ref->sims) {
                prefix_cycles += s.cycles;
                prefix_insts += s.committed;
            }
        }
    }
    std::printf("digest %s seed=%llu: %s (%zu request(s) per client)\n",
                plan.name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                prefix_ok ? digest.hex().c_str() : "incomplete",
                plan.digest_prefix);

    // End-to-end metrics from the untraced loop.
    double committed = 0.0, request_s = 0.0;
    std::map<std::string, double> ipc_error; // distinct simulations
    for (const auto &client : records)
        for (const auto &rec : client) {
            if (!rec.verified || rec.index >= kTracedBase)
                continue;
            committed += static_cast<double>(rec.ref->committed);
            request_s += rec.latency_ms / 1000.0;
            for (const SimInfo &s : rec.ref->sims) {
                double paper = 0.0;
                for (const auto &p : trace::table3Profiles())
                    if (p.name == s.name)
                        paper = p.paper_ipc;
                const std::string key = s.name + "/" +
                                        std::to_string(s.cycles) + "/" +
                                        std::to_string(s.committed);
                if (paper > 0.0)
                    ipc_error[key] =
                        std::abs(s.ipc - paper) / paper * 100.0;
            }
        }
    double ipc_error_sum = 0.0;
    for (const auto &[key, err] : ipc_error)
        ipc_error_sum += err;

    const std::size_t failed_total =
        loop.failed + loop.rejected + traced_loop.failed +
        traced_loop.rejected;
    const std::size_t attempted_total =
        loop.attempted + traced_loop.attempted;
    const double error_ratio =
        attempted_total
            ? static_cast<double>(failed_total) /
                  static_cast<double>(attempted_total)
            : 1.0;
    const bool accounting_ok = loop.balanced() && loop.closed() &&
                               traced_loop.balanced() &&
                               traced_loop.closed();
    const bool correct = accounting_ok && prefix_ok &&
                         mismatches.load() == 0 &&
                         daemon_stats.coalesced == 0 &&
                         daemon_stats.rejected == 0 && loop.done > 0;

    const std::size_t n = loop.latency_ms.size();
    const bool p90_ok = samplesBeyond(90.0, n) >= 10;
    const double tail = tailPercentile(n);
    const double p50 = percentile(loop.latency_ms, 50.0);
    std::printf("requests %s: attempted %zu, done %zu, failed %zu, "
                "rejected %zu, mismatched %zu, max in flight %zu of %u "
                "client(s)\n",
                plan.name.c_str(), loop.attempted, loop.done,
                loop.failed, loop.rejected, mismatches.load(),
                loop.max_in_flight, plan.clients);
    std::printf("latency samples %zu; tail percentile with >= 10 "
                "samples beyond it: p%g = %.6f ms; p99 = %.6f ms%s\n",
                n, tail, percentile(loop.latency_ms, tail),
                percentile(loop.latency_ms, 99.0),
                samplesBeyond(99.0, n) < 10
                    ? " (fewer than 10 samples beyond it)"
                    : "");
    if (!p90_ok)
        std::printf("latency_p90_ms has fewer than 10 samples beyond "
                    "it: the run is not correct\n");
    std::printf("fixture.fill_s %.6f s; error_ratio %.6f; verification "
                "%.6f s of %.6f s wall\n",
                fixture_fill_s, error_ratio, loop.wall_s - daemon_wall_s,
                loop.wall_s);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"latency_p50_ms", p50, "ms"},
            {"latency_p90_ms", percentile(loop.latency_ms, 90.0), "ms"},
            {"throughput_rps",
             static_cast<double>(loop.done) / daemon_wall_s, "1/s"},
            {"sim_minst_per_s",
             request_s > 0.0 ? committed / request_s / 1e6 : 0.0,
             "Minst/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"ipc_error_pct",
             ipc_error.empty()
                 ? 0.0
                 : ipc_error_sum / static_cast<double>(ipc_error.size()),
             "%"},
        };
        printResult(correct && p90_ok, attempted_total, failed_total,
                    metrics);
        return 0;
    }

    // ----------------------------------------------- per-layer metrics
    const std::vector<SpanRecord> spans = log.spans();
    std::vector<std::vector<int>> kids(spans.size());
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(s.id);

    std::vector<TracedRecord> trs;
    for (auto &client : traced)
        for (auto &tr : client)
            trs.push_back(std::move(tr));
    std::set<std::uint64_t> traced_ids;
    for (const TracedRecord &tr : trs)
        traced_ids.insert(tr.request);

    // Per request: summed ms by span name; per call: ms by name.
    std::map<std::uint64_t, std::map<std::string, double>> by_request;
    std::map<std::string, std::vector<double>> per_call;
    std::map<std::uint64_t, std::map<std::string, double>> layer_self;
    for (const SpanRecord &s : spans) {
        const bool in_trace = traced_ids.count(s.request) > 0;
        if (in_trace) {
            by_request[s.request][s.name] += s.ms();
            per_call[s.name].push_back(s.ms());
            if (s.parent < 0 &&
                std::strcmp(s.name, "replica.request") == 0)
                attribute(spans, kids, s.id, 1.0,
                          layer_self[s.request]);
        }
    }
    const auto perRequest = [&](const std::vector<std::string> &names) {
        std::vector<double> values;
        for (const TracedRecord &tr : trs) {
            double sum = 0.0;
            for (const auto &nm : names) {
                const auto &m = by_request[tr.request];
                const auto it = m.find(nm);
                sum += it == m.end() ? 0.0 : it->second;
            }
            values.push_back(sum);
        }
        return median(values);
    };
    const auto perCall = [&](const std::string &nm) {
        return median(per_call[nm]);
    };

    std::vector<double> framing, queue_wait, output_bytes, bytes_read,
        core_runs, kernel_units, fallback_units;
    std::size_t unique = 0, requested = 0, loads = 0, hits = 0;
    double cells = 0.0, replay_s = 0.0;
    for (const TracedRecord &tr : trs) {
        auto &m = by_request[tr.request];
        const double status = m["serve.status_write"];
        const double done_write = status / 3.0;
        const double export_ms =
            plan.socket ? 0.0 : m["serve.metrics_export"];
        const double f =
            tr.rtt_ms - tr.total_ms - done_write - export_ms;
        const double q = tr.total_ms - tr.run_ms -
                         (m["api.parse"] + m["api.fingerprint"] +
                          m["api.validate"] + status * 2.0 / 3.0 +
                          m["api.render"] + m["serve.deliver"]);
        framing.push_back(f);
        queue_wait.push_back(q);
        // The daemon-side residuals join the serve layer; a socket
        // client's answer does not wait for the metrics snapshot.
        auto &layers = layer_self[tr.request];
        layers["serve"] += f + q;
        if (plan.socket)
            layers["serve"] -= m["serve.metrics_export"];
        output_bytes.push_back(static_cast<double>(tr.output_bytes));
        bytes_read.push_back(static_cast<double>(tr.replica.bytes_read));
        core_runs.push_back(static_cast<double>(tr.replica.core_runs));
        kernel_units.push_back(
            static_cast<double>(tr.replica.kernel_units));
        fallback_units.push_back(
            static_cast<double>(tr.replica.fallback_units));
        unique += tr.replica.unique_sims;
        requested += tr.replica.requested_sims;
        loads += tr.replica.loads;
        hits += tr.replica.hits;
        cells += static_cast<double>(tr.replica.cells);
        replay_s += (m["replay.build"] + m["replay.run"] +
                     m["replay.finalize"]) /
                    1000.0;
    }

    // cpu: every simulation in the log (fixture included), per call.
    std::map<std::string, std::vector<double>> minst;
    double phase_busy = 0.0, phase_capacity = 0.0;
    std::vector<double> saves;
    for (const SpanRecord &s : spans) {
        if (std::strcmp(s.name, "cpu.sim") == 0 && s.ms() > 0.0)
            minst[s.tag].push_back(s.value / (s.ms() / 1000.0) / 1e6);
        if (std::strcmp(s.name, "store.save") == 0)
            saves.push_back(s.ms());
        if (std::strcmp(s.name, "batch.phase1") == 0) {
            double busy = 0.0;
            bool simulated = false;
            for (const int c : kids[static_cast<std::size_t>(s.id)]) {
                const SpanRecord &k = spans[static_cast<std::size_t>(c)];
                busy += k.ms();
                simulated |= std::strcmp(k.name, "cpu.sim") == 0;
            }
            if (simulated) {
                phase_busy += busy;
                phase_capacity += s.ms() * (threads + 1);
            }
        }
    }

    // Attribution: the summed layer self-times against the median
    // round trip of the same traced requests (what tracing itself
    // adds over the untraced median is trace.overhead_pct).
    const std::vector<std::string> layer_names = {
        "serve", "api", "store", "cpu", "harness", "replay"};
    double attributed = 0.0;
    std::printf("per-request self time by layer (median ms):");
    for (const auto &layer : layer_names) {
        std::vector<double> values;
        for (const TracedRecord &tr : trs)
            values.push_back(layer_self[tr.request][layer]);
        const double m = median(values);
        attributed += m;
        std::printf(" %s %.4f", layer.c_str(), m);
    }
    std::printf("\n");
    std::vector<double> rtts;
    for (const TracedRecord &tr : trs)
        rtts.push_back(tr.rtt_ms);

    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    metrics = {
        {"serve.rtt_ms", median(rtts), "ms"},
        {"serve.exec_ms",
         [&] {
             std::vector<double> v;
             for (const auto &tr : trs)
                 v.push_back(tr.run_ms);
             return median(v);
         }(),
         "ms"},
        {"serve.queue_wait_ms", median(queue_wait), "ms"},
        {"serve.framing_ms", median(framing), "ms"},
        {"serve.status_write_ms", perCall("serve.status_write"), "ms"},
        {"serve.deliver_ms", perRequest({"serve.deliver"}), "ms"},
        {"serve.metrics_export_ms", perCall("serve.metrics_export"),
         "ms"},
        {"serve.coalesced", static_cast<double>(daemon_stats.coalesced),
         "count"},
        {"serve.rejected", static_cast<double>(daemon_stats.rejected),
         "count"},
        {"api.parse_ms", perCall("api.parse"), "ms"},
        {"api.fingerprint_us", perCall("api.fingerprint") * 1000.0,
         "us"},
        {"api.batch_ms", perRequest({"api.batch"}), "ms"},
        {"api.render_ms", perRequest({"api.render"}), "ms"},
        {"api.output_bytes", median(output_bytes), "bytes"},
        {"api.dedup_ratio",
         ratio(static_cast<double>(unique),
               static_cast<double>(requested)),
         "ratio"},
        {"store.load_ms", perCall("store.load"), "ms"},
        {"store.read_ms", perCall("store.read"), "ms"},
        {"store.decode_ms", perCall("store.decode"), "ms"},
        {"store.save_ms", median(saves), "ms"},
        {"store.hit_ratio",
         ratio(static_cast<double>(hits), static_cast<double>(loads)),
         "ratio"},
        {"store.bytes_read", median(bytes_read), "bytes"},
        {"store.retries",
         static_cast<double>(obs::counter("store.retries").value()),
         "count"},
        {"store.lock_timeouts",
         static_cast<double>(
             obs::counter("store.lock_timeouts").value()),
         "count"},
        {"store.quarantined",
         static_cast<double>(obs::counter("store.quarantined").value()),
         "count"},
    };
    for (const char *bench : kColdBenchmarks)
        metrics.push_back({std::string("sim.minst_per_s.") + bench,
                           median(minst[bench]), "Minst/s"});
    const double untraced_p50 = p50;
    metrics.insert(
        metrics.end(),
        {
            {"sim.cycles", static_cast<double>(prefix_cycles), "count"},
            {"sim.insts", static_cast<double>(prefix_insts), "count"},
            {"sim.pool_util", ratio(phase_busy, phase_capacity), "ratio"},
            {"sim.count", median(core_runs), "count"},
            {"sim.select_ms",
             perRequest({"harness.task", "harness.select"}), "ms"},
            {"replay.build_ms", perRequest({"replay.build"}), "ms"},
            {"replay.run_ms", perRequest({"replay.run"}), "ms"},
            {"replay.finalize_ms", perRequest({"replay.finalize"}), "ms"},
            {"replay.kernel_units", median(kernel_units), "count"},
            {"replay.fallback_units", median(fallback_units), "count"},
            {"replay.cells_per_s", ratio(cells, replay_s), "1/s"},
            {"trace.unattributed_pct",
             ratio(median(rtts) - attributed, median(rtts)) * 100.0,
             "%"},
            {"trace.overhead_pct",
             ratio(median(rtts) - untraced_p50, untraced_p50) * 100.0,
             "%"},
            {"error_ratio", error_ratio, "ratio"},
            {"fixture.fill_s", fixture_fill_s, "s"},
        });
    printResult(correct && !trs.empty(), attempted_total, failed_total,
                metrics);
    return 0;
}

// -------------------------------------------------------------- selftest

int
selftest()
{
    int failures = 0, checks = 0;
    const auto check = [&](bool ok, const char *what) {
        ++checks;
        if (!ok) {
            ++failures;
            std::printf("selftest FAILED: %s\n", what);
        }
    };
    const auto near = [](double a, double b) {
        return std::abs(a - b) < 1e-9;
    };

    // Percentiles on known samples (linear interpolation).
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    check(near(percentile(ten, 50.0), 5.5), "p50 of 1..10 is 5.5");
    check(near(percentile(ten, 90.0), 9.1), "p90 of 1..10 is 9.1");
    check(near(percentile(ten, 0.0), 1.0), "p0 is the minimum");
    check(near(percentile(ten, 100.0), 10.0), "p100 is the maximum");
    check(near(percentile({42.0}, 99.0), 42.0), "one sample");
    check(percentile({}, 50.0) == 0.0, "no samples gives 0");
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    check(near(percentile(hundred, 99.0), 99.01), "p99 of 1..100");

    // The tail rule: at least ten samples beyond the percentile.
    check(samplesBeyond(90.0, 100) == 10, "100 samples: 10 beyond p90");
    check(samplesBeyond(99.0, 1000) == 10, "1000: 10 beyond p99");
    check(samplesBeyond(99.0, 999) == 9, "999: 9 beyond p99");
    check(tailPercentile(99) == 50.0, "99 samples: only the median");
    check(tailPercentile(100) == 90.0, "100 samples: p90");
    check(tailPercentile(999) == 90.0, "999 samples: still p90");
    check(tailPercentile(1000) == 99.0, "1000 samples: p99");
    check(tailPercentile(10000) == 99.9, "10000 samples: p99.9");
    for (std::size_t n : {100u, 250u, 1000u, 5000u, 20000u})
        check(samplesBeyond(tailPercentile(n), n) >= 10,
              "reported tail always has >= 10 beyond");

    // The closed loop: outcomes by index pattern, concurrency watched
    // from inside the request function.
    constexpr unsigned kClients = 3;
    std::atomic<int> inside{0}, most{0};
    const LoopResult loop = runClosedLoop(
        kClients, 0.2, 7, 5.0,
        [&](unsigned, std::size_t i, double *latency) {
            const int now = inside.fetch_add(1) + 1;
            int seen = most.load();
            while (now > seen && !most.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            *latency = 1.0;
            inside.fetch_sub(1);
            if (i % 5 == 3)
                return Outcome::Failed;
            if (i % 7 == 6)
                return Outcome::Rejected;
            return Outcome::Done;
        });
    check(loop.balanced(), "attempted == done + failed + rejected");
    check(loop.closed(), "never more in flight than clients");
    check(most.load() <= static_cast<int>(kClients),
          "observed concurrency <= clients");
    check(loop.max_in_flight >= 1, "in-flight counter moved");
    check(loop.attempted >= kClients * 7, "minimum per client honoured");
    check(loop.latency_ms.size() == loop.done,
          "one latency per completed request");
    check(loop.failed > 0 && loop.rejected > 0,
          "failures and rejections are counted");
    LoopResult broken = loop;
    broken.attempted += 1;
    check(!broken.balanced(), "a lost request breaks the balance");
    broken = loop;
    broken.max_in_flight = kClients + 1;
    check(!broken.closed(), "an extra request in flight is caught");

    // Attribution: parallel children share the covered time.
    std::vector<SpanRecord> spans(3);
    spans[0] = {"root", "api", 1, 0, -1, 0.0, 10'000.0, {}, 0.0};
    spans[1] = {"a", "cpu", 1, 1, 0, 0.0, 8'000.0, {}, 0.0};
    spans[2] = {"b", "store", 1, 2, 0, 0.0, 8'000.0, {}, 0.0};
    std::vector<std::vector<int>> kids = {{1, 2}, {}, {}};
    std::map<std::string, double> layers;
    attribute(spans, kids, 0, 1.0, layers);
    check(near(layers["api"], 2.0), "self time is the uncovered part");
    check(near(layers["cpu"], 4.0) && near(layers["store"], 4.0),
          "overlapping children split the covered time");

    std::printf("selftest: %d of %d checks passed\n", checks - failures,
                checks);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--selftest")
                self = true;
            else if (arg == "--workload")
                opt.workload = next();
            else if (arg == "--seed")
                opt.seed = std::stoull(next());
            else if (arg == "--seconds")
                opt.seconds = std::stod(next());
            else if (arg == "--trace")
                opt.trace = next() == "1";
            else if (arg == "--workdir")
                opt.workdir = next();
            else
                throw std::invalid_argument("unknown argument " + arg);
        } catch (const std::exception &err) {
            std::fprintf(stderr, "lsim_perfbench: %s\n", err.what());
            return 2;
        }
    }
    if (self)
        return selftest();
    if (opt.workload.empty() || opt.workdir.empty() ||
        !(opt.seconds > 0.0)) {
        std::fprintf(stderr, "usage: lsim_perfbench --workload W --seed N "
                             "--seconds S --trace 0|1 --workdir DIR\n");
        return 2;
    }
    try {
        return runWorkload(opt);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "lsim_perfbench: %s\n", err.what());
        return 1;
    }
}
