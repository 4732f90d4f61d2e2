/**
 * @file
 * Chaos tests: the serve/store tier under seeded fault schedules
 * (common/fault.hh). The invariants under test are the failure
 * model's headline guarantees — every admitted request terminates in
 * done/error/rejected, no waiter outlives its timeout, an exceeded
 * deadline lands as an error with no partial results, and a fresh
 * daemon over the same spool/store serves byte-identical results
 * once the faults clear.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "obs/metrics.hh"
#include "serve/daemon.hh"
#include "serve/socket.hh"
#include "serve/spec.hh"

namespace
{

namespace fs = std::filesystem;
using namespace lsim;
using namespace lsim::serve;

constexpr const char *kSpec =
    R"({"sweeps": [{"benchmarks": ["gcc"], "steps": 2,
                    "insts": 20000}]})";

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lsim_chaos_" + name);
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

/** Distinct spec per index (unique seed) so requests never
 * coalesce and every one exercises the full pipeline. */
std::string
specNumber(int i)
{
    return std::string(R"({"sweeps": [{"benchmarks": ["gcc"], )") +
           R"("steps": 2, "insts": 20000, "seed": )" +
           std::to_string(i + 1) + "}]}";
}

ServeConfig
chaosConfig(const std::string &spool)
{
    ServeConfig cfg;
    cfg.spool_dir = spool;
    cfg.socket_path = (fs::path(spool) / "lsim.sock").string();
    cfg.cache_dir = (fs::path(spool) / "cache").string();
    cfg.threads = 2;
    cfg.poll_ms = 20;
    return cfg;
}

std::string
stateOf(const std::string &line)
{
    return parseJson(line).at("state").asString();
}

/** Chaos runs arm the global registry; never leak triggers. */
class ChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

// --------------------------------------------- all-terminal sweep

TEST_F(ChaosTest, SeededFaultScheduleLeavesEveryRequestTerminal)
{
    const std::string spool = freshDir("terminal");
    ServeConfig cfg = chaosConfig(spool);
    std::atomic<bool> stop{false};
    cfg.stop = [&] { return stop.load(); };
    Daemon daemon(cfg);

    // A seeded schedule across the failure domains the daemon owns
    // (not the socket ones — the in-process clients below share
    // those helpers). Everything here only *degrades*: claims are
    // retried by later drains, status writes are backed by the
    // completion board, store faults fall back to
    // compute-without-cache — so every request must land in done.
    fault::configure("serve.claim:count=1, serve.status:every=3, "
                     "store.write:prob=0.5:seed=42");

    constexpr int kSocket = 4;
    for (int i = 0; i < kSocket; ++i) {
        const ClientResult ack = socketSubmit(
            daemon.socketPath(), "sock" + std::to_string(i),
            specNumber(i), /*priority=*/0, /*wait=*/false, 30.0);
        ASSERT_TRUE(ack.ok) << ack.error;
    }
    constexpr int kSpool = 2;
    for (int i = 0; i < kSpool; ++i)
        writeFile(fs::path(spool) /
                      ("disk" + std::to_string(i) + ".json"),
                  specNumber(kSocket + i));

    std::thread server([&] { daemon.run(); });

    // Every request must reach a terminal state within its wait
    // budget, and no waiter may outlive that budget (plus polling
    // slack) even when its request's status write was eaten.
    constexpr double kWaitS = 60.0;
    std::vector<std::string> names;
    for (int i = 0; i < kSocket; ++i)
        names.push_back("sock" + std::to_string(i));
    for (int i = 0; i < kSpool; ++i)
        names.push_back("disk" + std::to_string(i));
    for (const std::string &name : names) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::string line = daemon.waitFor(name, kWaitS);
        const double waited =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        EXPECT_LT(waited, kWaitS + 1.0) << name;
        const std::string state = stateOf(line);
        EXPECT_TRUE(state == "done" || state == "error" ||
                    state == "rejected")
            << name << ": " << line;
        EXPECT_NE(state, "error") << name << ": " << line
                                  << " (injected faults above only "
                                     "degrade, never fail)";
    }

    stop.store(true);
    server.join();

    // The schedule actually exercised the store's failure paths.
    EXPECT_GT(fault::fired("store.write") +
                  fault::fired("serve.status"),
              0u);

    // Nothing is left claimed: work/ is empty once the drain loop
    // stops (done/failed hold the consumed specs).
    for (const auto &de :
         fs::directory_iterator(fs::path(spool) / "work"))
        ADD_FAILURE() << "stranded claim: " << de.path();
}

TEST_F(ChaosTest, LostDeliveryFailsTheRequestNotTheDaemon)
{
    const std::string spool = freshDir("delivery");
    ServeConfig cfg = chaosConfig(spool);
    cfg.once = true;
    Daemon daemon(cfg);

    // Every result write fails: the request lands in error (with
    // the write failure named), and the daemon stays serviceable.
    fault::configure("serve.deliver");
    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "lost", kSpec, 0,
                             false, 30.0)
                    .ok);
    daemon.drainOnce();

    const std::string line = daemon.waitFor("lost", 10.0);
    EXPECT_EQ(stateOf(line), "error");

    // error status guarantees no result files.
    const fs::path dir = fs::path(daemon.resultsDir()) / "lost";
    for (const auto &de : fs::directory_iterator(dir))
        EXPECT_EQ(de.path().filename().string(), "status.json");

    // With the fault cleared the same daemon serves the next
    // request normally.
    fault::reset();
    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "after", kSpec, 0,
                             false, 30.0)
                    .ok);
    daemon.drainOnce();
    EXPECT_EQ(stateOf(daemon.waitFor("after", 10.0)), "done");
}

TEST_F(ChaosTest, PartlyLostDeliveryLeavesNoResultFiles)
{
    const std::string spool = freshDir("partial_delivery");
    ServeConfig cfg = chaosConfig(spool);
    cfg.once = true;
    Daemon daemon(cfg);

    // Two sweeps make four result files, written by four pool tasks
    // as each finishes rendering. The first write to consult the
    // point lands on disk; the other three fail.
    constexpr const char *kTwoSweeps =
        R"({"sweeps": [{"benchmarks": ["gcc"], "steps": 2,
                        "insts": 20000},
                       {"benchmarks": ["gcc"], "steps": 3,
                        "insts": 20000, "policies": ["max-sleep"]}]})";
    fault::configure("serve.deliver:after=1");
    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "partial",
                             kTwoSweeps, 0, false, 30.0)
                    .ok);
    daemon.drainOnce();
    EXPECT_EQ(fault::hits("serve.deliver"), 4u);
    EXPECT_EQ(fault::fired("serve.deliver"), 3u);

    const std::string line = daemon.waitFor("partial", 10.0);
    EXPECT_EQ(stateOf(line), "error");
    EXPECT_NE(parseJson(line).at("error").asString().find(
                  "cannot write results"),
              std::string::npos)
        << line;

    // The file that was written is gone again, and no temp file of
    // a parallel write is left: only the status remains.
    std::vector<std::string> left;
    for (const auto &de : fs::directory_iterator(
             fs::path(daemon.resultsDir()) / "partial"))
        left.push_back(de.path().filename().string());
    EXPECT_EQ(left, std::vector<std::string>{"status.json"});

    fault::reset();
    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "whole", kTwoSweeps,
                             0, false, 30.0)
                    .ok);
    daemon.drainOnce();
    EXPECT_EQ(stateOf(daemon.waitFor("whole", 10.0)), "done");
    for (const char *file : {"sweep_0.csv", "sweep_0.json",
                             "sweep_1.csv", "sweep_1.json"})
        EXPECT_TRUE(fs::exists(fs::path(daemon.resultsDir()) /
                               "whole" / file))
            << file;
}

// ------------------------------------------------------ deadlines

TEST_F(ChaosTest, ExceededDeadlineLandsErrorWithoutPartialResults)
{
    const std::string spool = freshDir("deadline");
    ServeConfig cfg = chaosConfig(spool);
    cfg.once = true;
    cfg.request_timeout_s = 1e-6; // expires before the first phase
    Daemon daemon(cfg);

    const auto deadline_before =
        obs::counter("serve.deadline_exceeded").value();
    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "slow", kSpec, 0,
                             false, 30.0)
                    .ok);
    daemon.drainOnce();

    const auto t0 = std::chrono::steady_clock::now();
    const std::string line = daemon.waitFor("slow", 30.0);
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              30.0);
    EXPECT_EQ(stateOf(line), "error");
    EXPECT_NE(parseJson(line).at("error").asString().find(
                  "deadline exceeded"),
              std::string::npos)
        << line;
    EXPECT_EQ(obs::counter("serve.deadline_exceeded").value(),
              deadline_before + 1);

    // Partial work is discarded: only the status file remains.
    const fs::path dir = fs::path(daemon.resultsDir()) / "slow";
    for (const auto &de : fs::directory_iterator(dir))
        EXPECT_EQ(de.path().filename().string(), "status.json");
}

TEST_F(ChaosTest, GenerousDeadlineDoesNotPerturbResults)
{
    const std::string spool = freshDir("deadline_ok");
    ServeConfig cfg = chaosConfig(spool);
    cfg.once = true;
    cfg.request_timeout_s = 300.0;
    Daemon daemon(cfg);

    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "ok", kSpec, 0,
                             false, 30.0)
                    .ok);
    daemon.drainOnce();
    EXPECT_EQ(stateOf(daemon.waitFor("ok", 10.0)), "done");

    const auto direct =
        api::BatchRunner(batchConfigFromJson(parseJson(kSpec)))
            .run();
    std::ostringstream csv;
    direct.sweeps[0].writeCsv(csv);
    EXPECT_EQ(readFile(fs::path(daemon.resultsDir()) / "ok" /
                       "sweep_0.csv"),
              csv.str());
}

// --------------------------------------------------- socket chaos

TEST_F(ChaosTest, SocketFaultsNeverWedgeTheListener)
{
    const std::string spool = freshDir("socket");
    ServeConfig cfg = chaosConfig(spool);
    std::atomic<bool> stop{false};
    cfg.stop = [&] { return stop.load(); };
    Daemon daemon(cfg);
    std::thread server([&] { daemon.run(); });

    // The socket fault points live in the shared send/recv/accept
    // helpers, so this schedule breaks client and server sides
    // alike. Submissions may fail — what must hold is that every
    // attempt returns (no hang) and the listener survives. Bounded
    // count= triggers: at most 6 of the 10 submissions can be hit,
    // however the firings interleave across connection threads.
    fault::configure("socket.accept:count=2, socket.read:count=2, "
                     "socket.write:count=2");
    int served = 0;
    for (int i = 0; i < 10; ++i) {
        const ClientResult r = socketSubmit(
            daemon.socketPath(), std::string("c") + std::to_string(i),
            specNumber(i), 0, /*wait=*/false, 10.0);
        served += r.ok ? 1 : 0;
    }

    // With faults cleared the daemon must serve a clean round trip:
    // the injected connection drops leaked nothing.
    fault::reset();
    const ClientResult clean = socketSubmit(
        daemon.socketPath(), "clean", kSpec, 0, /*wait=*/true, 60.0);
    ASSERT_TRUE(clean.ok) << clean.error;
    EXPECT_EQ(stateOf(clean.lines.back()), "done");

    stop.store(true);
    server.join();
    // The chaos loop got at least one submission through (the
    // schedule fires on a subset of hits, not all of them).
    EXPECT_GT(served, 0);
}

// --------------------------------------- post-fault determinism

TEST_F(ChaosTest, FreshDaemonServesSameStoreByteIdentically)
{
    const std::string spool_a = freshDir("ident_a");
    const std::string spool_b = freshDir("ident_b");
    const std::string undisturbed = freshDir("ident_ref");

    // Reference: an undisturbed daemon over its own store.
    {
        ServeConfig cfg = chaosConfig(undisturbed);
        cfg.once = true;
        Daemon daemon(cfg);
        writeFile(fs::path(undisturbed) / "req.json", kSpec);
        daemon.drainOnce();
    }
    const std::string want =
        readFile(fs::path(undisturbed) / "results" / "req" /
                 "sweep_0.csv");
    ASSERT_FALSE(want.empty());

    // Chaos run: a daemon takes store and delivery faults while
    // warming the shared cache dir (the request may fail or run
    // degraded — both fine).
    {
        ServeConfig cfg = chaosConfig(spool_a);
        cfg.cache_dir = (fs::path(spool_b) / "cache").string();
        cfg.once = true;
        Daemon daemon(cfg);
        fault::configure("store.write:every=2, "
                         "serve.status:every=2");
        writeFile(fs::path(spool_a) / "req.json", kSpec);
        daemon.drainOnce();
        fault::reset();
    }

    // A fresh, fault-free daemon over the store the chaos run left
    // behind must serve the same request byte-identically to the
    // undisturbed reference — whatever the faults did to the cache,
    // they never poisoned results.
    {
        ServeConfig cfg = chaosConfig(spool_b);
        cfg.once = true;
        Daemon daemon(cfg);
        writeFile(fs::path(spool_b) / "req.json", kSpec);
        daemon.drainOnce();
        EXPECT_EQ(stateOf(daemon.waitFor("req", 10.0)), "done");
    }
    EXPECT_EQ(readFile(fs::path(spool_b) / "results" / "req" /
                       "sweep_0.csv"),
              want);
}

} // namespace
