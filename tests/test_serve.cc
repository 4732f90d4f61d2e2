/**
 * @file
 * Unit tests for the spool daemon (serve::Daemon) and the shared
 * batch-spec parser: specs picked up and executed, malformed specs
 * routed to failed/ with machine-readable error status, results
 * byte-identical to a direct BatchRunner run, the shared store
 * serving warm requests, restart recovery of stranded specs, and
 * the metrics.json snapshot matching status.json ground truth.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <vector>

#include "api/batch.hh"
#include "common/json.hh"
#include "obs/metrics.hh"
#include "serve/daemon.hh"
#include "serve/spec.hh"

namespace
{

namespace fs = std::filesystem;
using namespace lsim;
using namespace lsim::serve;

constexpr const char *kSpec =
    R"({"sweeps": [{"benchmarks": ["gcc"], "steps": 2,
                    "insts": 20000}]})";

/** Three sweeps that differ in benchmarks, policies and steps: six
 * outputs, each rendered by its own pool task. */
constexpr const char *kMultiSpec =
    R"({"sweeps": [
          {"benchmarks": ["gcc", "mst"], "steps": 3, "insts": 20000},
          {"benchmarks": ["mcf"], "policies": ["max-sleep", "timeout:64"],
           "steps": 2, "insts": 20000},
          {"benchmarks": ["gcc"], "policies": ["gradual", "oracle"],
           "p_min": 0.1, "p_max": 0.4, "steps": 5, "insts": 20000}]})";

/** Fresh per-test directory under gtest's temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lsim_serve_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

ServeConfig
baseConfig(const std::string &spool)
{
    ServeConfig cfg;
    cfg.spool_dir = spool;
    cfg.threads = 2;
    cfg.once = true;
    return cfg;
}

TEST(Spec, ParsesTheBatchFormat)
{
    const auto batch = batchConfigFromJson(parseJson(
        R"({"sweeps": [
              {"benchmarks": ["gcc", "mst"], "steps": 4,
               "insts": 12345, "seed": 7},
              {"benchmarks": ["gcc"], "policies": ["max-sleep"],
               "p_min": 0.1, "p_max": 0.4, "steps": 2}]})"));
    ASSERT_EQ(batch.sweeps.size(), 2u);
    EXPECT_EQ(batch.sweeps[0].workloads,
              (std::vector<std::string>{"gcc", "mst"}));
    EXPECT_EQ(batch.sweeps[0].technologies.size(), 4u);
    EXPECT_EQ(batch.sweeps[0].insts, 12345u);
    EXPECT_EQ(batch.sweeps[0].seed, 7u);
    EXPECT_EQ(batch.sweeps[1].policies,
              (std::vector<std::string>{"max-sleep"}));
    EXPECT_DOUBLE_EQ(batch.sweeps[1].technologies.front().p, 0.1);
    EXPECT_DOUBLE_EQ(batch.sweeps[1].technologies.back().p, 0.4);
}

TEST(Spec, RejectsMalformedDocuments)
{
    // Wrong shapes and unknown fields throw (never exit) so the
    // daemon can route the spec to failed/ and keep serving.
    for (const char *bad :
         {R"([1, 2])",                                  // not an object
          R"({"sweeps": []})",                          // empty
          R"({"sweeps": [{}], "bogus": 1})",            // unknown top field
          R"({"sweeps": [{"bogus": 1}]})",              // unknown sweep field
          R"({"sweeps": [{"steps": 0}]})",              // pSweep rejects
          R"({"sweeps": [{"insts": -5}]})",             // negative u64
          R"({"sweeps": [{"fus": 0}]})",                // 0 is not auto
          R"({"sweeps": [{"fus": 9}]})"})               // FU pool max 8
        EXPECT_THROW((void)batchConfigFromJson(parseJson(bad)),
                     std::invalid_argument)
            << bad;
    try {
        (void)batchConfigFromJson(
            parseJson(R"({"sweeps": [{"fus": 9}]})"));
        ADD_FAILURE() << "fus 9 accepted";
    } catch (const std::invalid_argument &err) {
        EXPECT_STREQ(err.what(), "batch spec sweep 0: bad fus '9': "
                                 "expected a count in 1-8 or 'auto'");
    }
}

TEST(Daemon, OnceExecutesSpecByteIdenticalToBatch)
{
    const std::string spool = freshDir("once");
    writeFile(fs::path(spool) / "req.json", kSpec);
    writeFile(fs::path(spool) / "multi.json", kMultiSpec);

    Daemon daemon(baseConfig(spool));
    EXPECT_EQ(daemon.drainOnce(), 2u);
    EXPECT_EQ(daemon.stats().done, 2u);
    EXPECT_EQ(daemon.stats().failed, 0u);

    // The spec was consumed into done/.
    EXPECT_FALSE(fs::exists(fs::path(spool) / "req.json"));
    EXPECT_TRUE(fs::exists(fs::path(spool) / "done" / "req.json"));

    // Every delivered sweep is byte-identical to a serial render of a
    // direct BatchRunner run of the same spec.
    for (const auto &[name, spec, sweeps] :
         {std::tuple{"req", kSpec, 1u},
          std::tuple{"multi", kMultiSpec, 3u}}) {
        SCOPED_TRACE(name);
        const auto reference =
            api::BatchRunner(batchConfigFromJson(parseJson(spec)))
                .run();
        ASSERT_EQ(reference.sweeps.size(), sweeps);
        const fs::path results = fs::path(spool) / "results" / name;
        for (std::size_t i = 0; i < sweeps; ++i) {
            std::ostringstream csv, json;
            reference.sweeps[i].writeCsv(csv);
            reference.sweeps[i].writeJson(json);
            const std::string stem = "sweep_" + std::to_string(i);
            EXPECT_EQ(readFile(results / (stem + ".csv")), csv.str());
            EXPECT_EQ(readFile(results / (stem + ".json")), json.str());
        }
        EXPECT_FALSE(fs::exists(
            results / ("sweep_" + std::to_string(sweeps) + ".csv")));
    }
    const fs::path results = fs::path(spool) / "results" / "req";

    // The status file is machine-readable and complete.
    const JsonValue status =
        parseJsonFile((results / "status.json").string());
    EXPECT_EQ(status.at("spec").asString(), "req.json");
    EXPECT_EQ(status.at("state").asString(), "done");
    EXPECT_EQ(status.at("sweeps").asU64(), 1u);
    EXPECT_GT(status.at("total_ms").asNumber(), 0.0);
    EXPECT_GE(status.at("total_ms").asNumber(),
              status.at("run_ms").asNumber());
    EXPECT_EQ(status.at("stats").at("requested_sims").asU64(), 1u);
    EXPECT_EQ(status.at("stats").at("sims_run").asU64(), 1u);
}

TEST(Daemon, MalformedSpecsLandInFailedAndDoNotStopTheDrain)
{
    const std::string spool = freshDir("malformed");
    writeFile(fs::path(spool) / "a_bad.json", "not json at all");
    writeFile(fs::path(spool) / "b_badspec.json",
              R"({"sweeps": [{"benchmarks": ["no-such-bench"],
                              "steps": 2}]})");
    writeFile(fs::path(spool) / "c_good.json", kSpec);
    // Admitted, but its last point leaves [0, 1]: it must fail as a
    // request, not abort a replay worker.
    writeFile(fs::path(spool) / "d_bad_p.json",
              R"({"sweeps": [{"benchmarks": ["gcc", "mst"],
                              "p_min": 0.5, "p_max": 1.5,
                              "steps": 3, "insts": 2000}]})");

    Daemon daemon(baseConfig(spool));
    EXPECT_EQ(daemon.drainOnce(), 4u);
    EXPECT_EQ(daemon.stats().failed, 3u);
    EXPECT_EQ(daemon.stats().done, 1u);

    EXPECT_TRUE(
        fs::exists(fs::path(spool) / "failed" / "a_bad.json"));
    EXPECT_TRUE(
        fs::exists(fs::path(spool) / "failed" / "b_badspec.json"));
    EXPECT_TRUE(
        fs::exists(fs::path(spool) / "done" / "c_good.json"));

    const JsonValue parse_err = parseJsonFile(
        (fs::path(spool) / "results" / "a_bad" / "status.json")
            .string());
    EXPECT_EQ(parse_err.at("state").asString(), "error");
    EXPECT_NE(parse_err.at("error").asString().find(
                  "JSON parse error"),
              std::string::npos);

    const JsonValue spec_err = parseJsonFile(
        (fs::path(spool) / "results" / "b_badspec" / "status.json")
            .string());
    EXPECT_EQ(spec_err.at("state").asString(), "error");
    EXPECT_NE(spec_err.at("error").asString().find("no-such-bench"),
              std::string::npos);

    EXPECT_TRUE(
        fs::exists(fs::path(spool) / "failed" / "d_bad_p.json"));
    const JsonValue p_err = parseJsonFile(
        (fs::path(spool) / "results" / "d_bad_p" / "status.json")
            .string());
    EXPECT_EQ(p_err.at("state").asString(), "error");
    EXPECT_NE(p_err.at("error").asString().find("p=1.5"),
              std::string::npos);
}

TEST(Daemon, SpoolSpecsObeyTheRequestNameRule)
{
    // A spool spec's request name is its filename stem: ".", ".."
    // and "a b" here. None may name a result dir — ".." would put
    // status.json and the sweeps in the spool root, where the next
    // drain takes them for specs, and "." straight into results/.
    const std::string spool = freshDir("bad_names");
    const std::vector<std::string> specs = {"..json", "...json",
                                            "a b.json"};
    for (const std::string &spec : specs)
        writeFile(fs::path(spool) / spec, kSpec);

    Daemon daemon(baseConfig(spool));
    EXPECT_EQ(daemon.drainOnce(), 3u);
    EXPECT_EQ(daemon.stats().failed, 3u);
    EXPECT_EQ(daemon.stats().done, 0u);
    for (const std::string &spec : specs)
        EXPECT_TRUE(fs::exists(fs::path(spool) / "failed" / spec))
            << spec;

    for (const std::string &dir : {spool, daemon.resultsDir()}) {
        for (const auto &de : fs::directory_iterator(dir)) {
            const std::string name = de.path().filename().string();
            EXPECT_NE(name, "status.json") << dir;
            EXPECT_NE(name.rfind("sweep_", 0), 0u) << de.path();
        }
    }
}

TEST(Daemon, WarmSecondRequestIsServedFromTheSharedStore)
{
    const std::string spool = freshDir("warm");
    auto cfg = baseConfig(spool);
    cfg.cache_dir = freshDir("warm_cache");
    Daemon daemon(cfg);

    writeFile(fs::path(spool) / "first.json", kSpec);
    EXPECT_EQ(daemon.drainOnce(), 1u);
    const JsonValue first = parseJsonFile(
        (fs::path(spool) / "results" / "first" / "status.json")
            .string());
    EXPECT_EQ(first.at("stats").at("sims_run").asU64(), 1u);
    EXPECT_EQ(first.at("stats").at("cache_hits").asU64(), 0u);

    // Same daemon instance, same store: the second request must be
    // pure replay.
    writeFile(fs::path(spool) / "second.json", kSpec);
    EXPECT_EQ(daemon.drainOnce(), 1u);
    const JsonValue second = parseJsonFile(
        (fs::path(spool) / "results" / "second" / "status.json")
            .string());
    EXPECT_EQ(second.at("stats").at("sims_run").asU64(), 0u);
    EXPECT_EQ(second.at("stats").at("cache_hits").asU64(), 1u);

    // Warm output stays byte-identical to the cold request's.
    EXPECT_EQ(
        readFile(fs::path(spool) / "results" / "first" /
                 "sweep_0.csv"),
        readFile(fs::path(spool) / "results" / "second" /
                 "sweep_0.csv"));

    // A freshly constructed daemon over the same cache dir is warm
    // too (the store is on disk, not in the instance).
    Daemon restarted(cfg);
    writeFile(fs::path(spool) / "third.json", kSpec);
    EXPECT_EQ(restarted.drainOnce(), 1u);
    const JsonValue third = parseJsonFile(
        (fs::path(spool) / "results" / "third" / "status.json")
            .string());
    EXPECT_EQ(third.at("stats").at("cache_hits").asU64(), 1u);
}

TEST(Daemon, RecoversSpecsStrandedInWork)
{
    const std::string spool = freshDir("recover");
    // Simulate a daemon that died mid-request: the claimed spec
    // sits in work/ with nobody executing it.
    fs::create_directories(fs::path(spool) / "work");
    writeFile(fs::path(spool) / "work" / "stranded.json", kSpec);

    Daemon daemon(baseConfig(spool));
    EXPECT_EQ(daemon.stats().recovered, 1u);
    EXPECT_TRUE(fs::exists(fs::path(spool) / "stranded.json"))
        << "recovery must re-queue the spec into the spool root";

    EXPECT_EQ(daemon.drainOnce(), 1u);
    EXPECT_EQ(daemon.stats().done, 1u);
    EXPECT_TRUE(
        fs::exists(fs::path(spool) / "done" / "stranded.json"));
    const JsonValue status = parseJsonFile(
        (fs::path(spool) / "results" / "stranded" / "status.json")
            .string());
    EXPECT_EQ(status.at("state").asString(), "done");
}

TEST(Daemon, RecoveryNeverClobbersAResubmittedSpec)
{
    const std::string spool = freshDir("recover_shadow");
    // A crashed daemon left a stale claimed copy of req.json, and
    // the user has since submitted a corrected req.json. Recovery
    // must keep the fresh spec and park the stale one in failed/.
    fs::create_directories(fs::path(spool) / "work");
    writeFile(fs::path(spool) / "work" / "req.json", "stale spec");
    writeFile(fs::path(spool) / "req.json", kSpec);

    Daemon daemon(baseConfig(spool));
    EXPECT_EQ(daemon.stats().recovered, 0u);
    EXPECT_EQ(readFile(fs::path(spool) / "req.json"), kSpec)
        << "the resubmitted spec must survive recovery untouched";
    EXPECT_EQ(readFile(fs::path(spool) / "failed" / "req.json"),
              "stale spec");

    EXPECT_EQ(daemon.drainOnce(), 1u);
    EXPECT_EQ(daemon.stats().done, 1u);
}

TEST(Daemon, RunOnceProcessesEverythingThenReturns)
{
    const std::string spool = freshDir("run_once");
    writeFile(fs::path(spool) / "a.json", kSpec);
    writeFile(fs::path(spool) / "b.json", "broken");

    Daemon daemon(baseConfig(spool));
    const ServeStats stats = daemon.run();
    EXPECT_EQ(stats.processed, 2u);
    EXPECT_EQ(stats.done, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.polls, 1u);
}

TEST(Daemon, StopFlagEndsTheLoop)
{
    const std::string spool = freshDir("stop");
    writeFile(fs::path(spool) / "req.json", kSpec);

    // Not --once: the loop would poll forever without the stop
    // hook. Stopping after the first scan must still have finished
    // the request in flight (graceful drain).
    ServeConfig cfg = baseConfig(spool);
    cfg.once = false;
    cfg.poll_ms = 10;
    cfg.stop = [] { return true; };
    Daemon daemon(cfg);
    const ServeStats stats = daemon.run();
    EXPECT_EQ(stats.done, 1u);
    EXPECT_TRUE(fs::exists(fs::path(spool) / "done" / "req.json"));
}

TEST(Daemon, MetricsSnapshotMatchesStatusGroundTruth)
{
    // The obs registry is process-wide and earlier tests fed it;
    // zero it so the snapshot reflects exactly this daemon's work.
    obs::MetricsRegistry::instance().reset();

    const std::string spool = freshDir("metrics");
    auto cfg = baseConfig(spool);
    cfg.cache_dir = freshDir("metrics_cache");
    Daemon daemon(cfg);
    // Distinct requests (different replay grids, so they do not
    // coalesce) sharing one phase-1 simulation: the second must be
    // served from the store, not re-simulated.
    writeFile(fs::path(spool) / "first.json", kSpec);
    writeFile(fs::path(spool) / "second.json",
              R"({"sweeps": [{"benchmarks": ["gcc"], "steps": 3,
                              "insts": 20000}]})");
    const ServeStats stats = daemon.run();
    ASSERT_EQ(stats.done, 2u);

    ASSERT_TRUE(fs::exists(daemon.metricsPath()))
        << daemon.metricsPath();
    const JsonValue doc = parseJsonFile(daemon.metricsPath());
    const JsonValue &counters = doc.at("counters");
    EXPECT_EQ(counters.at("serve.requests_done").asU64(), 2u);
    EXPECT_EQ(counters.at("serve.polls").asU64(), stats.polls);

    // Ground truth: the per-request status.json files the daemon
    // itself published.
    std::uint64_t cache_hits = 0, sims_run = 0;
    for (const char *stem : {"first", "second"}) {
        const JsonValue status = parseJsonFile(
            (fs::path(spool) / "results" / stem / "status.json")
                .string());
        EXPECT_EQ(status.at("state").asString(), "done");
        cache_hits += status.at("stats").at("cache_hits").asU64();
        sims_run += status.at("stats").at("sims_run").asU64();
        // Satellite: wall-clock stamps for post-hoc latency.
        EXPECT_FALSE(status.at("queued_at").asString().empty());
        EXPECT_FALSE(status.at("started_at").asString().empty());
        EXPECT_FALSE(status.at("finished_at").asString().empty());
    }
    EXPECT_EQ(counters.at("serve.cache_hits").asU64(), cache_hits);
    EXPECT_EQ(counters.at("serve.sims_run").asU64(), sims_run);
    EXPECT_EQ(cache_hits, 1u)
        << "requests sharing a phase-1 sim through one store "
           "must hit once";

    // The latency histogram counts exactly the done requests.
    const JsonValue &hist =
        doc.at("histograms").at("serve.request_ms");
    EXPECT_EQ(hist.at("count").asU64(), 2u);
    EXPECT_GT(hist.at("max").asNumber(), 0.0);

    EXPECT_DOUBLE_EQ(
        doc.at("gauges").at("serve.queue_depth").asNumber(), 0.0);
}

TEST(Daemon, MetricsCountFailuresSeparately)
{
    obs::MetricsRegistry::instance().reset();
    const std::string spool = freshDir("metrics_failed");
    writeFile(fs::path(spool) / "bad.json", "not json");
    Daemon daemon(baseConfig(spool));
    const ServeStats stats = daemon.run();
    EXPECT_EQ(stats.failed, 1u);

    const JsonValue doc = parseJsonFile(daemon.metricsPath());
    const JsonValue &counters = doc.at("counters");
    EXPECT_EQ(counters.at("serve.requests_failed").asU64(), 1u);
    EXPECT_EQ(counters.at("serve.requests_done").asU64(), 0u);
    // Failed requests stay out of the latency histogram, keeping
    // its count equal to serve.requests_done. (The histogram is
    // only registered once a request succeeds, hence find().)
    if (const JsonValue *hist =
            doc.at("histograms").find("serve.request_ms")) {
        EXPECT_EQ(hist->at("count").asU64(), 0u);
    }
}

TEST(Daemon, DeliverHistogramCountsEachExecutedRequest)
{
    // Deltas, not absolutes: the registry is process-global.
    obs::Histogram &deliver = obs::histogram("serve.deliver_ms");
    const std::uint64_t before = deliver.count();

    const std::string spool = freshDir("deliver_ms");
    writeFile(fs::path(spool) / "multi.json", kMultiSpec);
    writeFile(fs::path(spool) / "single.json", kSpec);
    writeFile(fs::path(spool) / "bad.json", "not json");
    Daemon daemon(baseConfig(spool));
    const ServeStats stats = daemon.run();
    ASSERT_EQ(stats.done, 2u);
    ASSERT_EQ(stats.failed, 1u);

    // One observation per executed request, whatever its sweep
    // count; a spec that fails before execution writes no results.
    EXPECT_EQ(deliver.count() - before, 2u);
}

TEST(Daemon, RejectsAnUncreatableSpool)
{
    ServeConfig cfg;
    cfg.spool_dir = "";
    EXPECT_THROW(Daemon{cfg}, std::invalid_argument);

    // A file where the spool directory should be.
    const std::string dir = freshDir("notadir");
    writeFile(fs::path(dir) / "occupied", "x");
    ServeConfig bad = baseConfig((fs::path(dir) / "occupied").string());
    EXPECT_THROW(Daemon{bad}, std::invalid_argument);
}

} // namespace
