/**
 * @file
 * Unit tests for the daemon's network front door: the admission
 * queue (bounded capacity, priorities, request coalescing, name
 * collisions), the Unix-socket submit/wait protocol end to end, and
 * the tentpole guarantee — N identical in-flight submissions
 * collapse to exactly one BatchRunner execution whose results fan
 * out byte-identically to every waiter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/batch.hh"
#include "common/json.hh"
#include "obs/metrics.hh"
#include "serve/daemon.hh"
#include "serve/queue.hh"
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

/** Same spec, different whitespace: must coalesce with kSpec (the
 * fingerprint hashes the parsed config, not the bytes). */
constexpr const char *kSpecReformatted =
    R"({ "sweeps":[ {"steps": 2, "insts": 20000,
                     "benchmarks":["gcc"] } ] })";

/** A different request (other replay grid): never coalesces. */
constexpr const char *kOtherSpec =
    R"({"sweeps": [{"benchmarks": ["gcc"], "steps": 3,
                    "insts": 20000}]})";

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lsim_socket_" + name);
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

/** Daemon config with a live socket; not draining until told. */
ServeConfig
socketConfig(const std::string &spool)
{
    ServeConfig cfg;
    cfg.spool_dir = spool;
    cfg.socket_path = (fs::path(spool) / "lsim.sock").string();
    cfg.threads = 2;
    cfg.once = true;
    return cfg;
}

QueuedRequest
request(const std::string &name, const std::string &fingerprint,
        int priority = 0)
{
    QueuedRequest req;
    req.name = name;
    req.fingerprint = fingerprint;
    req.priority = priority;
    return req;
}

std::string
stateOf(const std::string &line)
{
    return parseJson(line).at("state").asString();
}

// ------------------------------------------------- RequestQueue

TEST(RequestQueue, PopsByPriorityThenAdmissionOrder)
{
    RequestQueue queue(10);
    ASSERT_EQ(queue.submit(request("a", "f1", 0), nullptr),
              Admission::Enqueued);
    ASSERT_EQ(queue.submit(request("b", "f2", 5), nullptr),
              Admission::Enqueued);
    ASSERT_EQ(queue.submit(request("c", "f3", 5), nullptr),
              Admission::Enqueued);
    ASSERT_EQ(queue.submit(request("d", "f4", 1), nullptr),
              Admission::Enqueued);

    std::vector<std::string> order;
    while (auto req = queue.pop()) {
        order.push_back(req->name);
        queue.finish(req->name);
    }
    EXPECT_EQ(order,
              (std::vector<std::string>{"b", "c", "d", "a"}));
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueue, BoundsAdmissionButNotCoalescing)
{
    RequestQueue queue(2);
    ASSERT_EQ(queue.submit(request("a", "f1"), nullptr),
              Admission::Enqueued);
    ASSERT_EQ(queue.submit(request("b", "f2"), nullptr),
              Admission::Enqueued);
    EXPECT_TRUE(queue.full());
    EXPECT_EQ(queue.submit(request("c", "f3"), nullptr),
              Admission::RejectedFull);

    // A follower rides an admitted request: no slot consumed, so
    // backpressure does not apply to it.
    std::string primary;
    EXPECT_EQ(queue.submit(request("d", "f1"), &primary),
              Admission::Coalesced);
    EXPECT_EQ(primary, "a");
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_TRUE(queue.live("d"));
}

TEST(RequestQueue, RejectsDuplicateLiveNames)
{
    RequestQueue queue(4);
    ASSERT_EQ(queue.submit(request("a", "f1"), nullptr),
              Admission::Enqueued);
    EXPECT_EQ(queue.submit(request("a", "f2"), nullptr),
              Admission::RejectedName);

    // The name frees up once the request is finished.
    ASSERT_TRUE(queue.pop().has_value());
    queue.finish("a");
    EXPECT_EQ(queue.submit(request("a", "f2"), nullptr),
              Admission::Enqueued);
}

TEST(RequestQueue, CoalescesOntoAnExecutingPrimary)
{
    RequestQueue queue(4);
    ASSERT_EQ(queue.submit(request("a", "f1"), nullptr),
              Admission::Enqueued);
    const auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());

    // "a" is executing (popped, not finished): an identical request
    // still attaches to it.
    std::string primary;
    EXPECT_EQ(queue.submit(request("b", "f1"), &primary),
              Admission::Coalesced);
    EXPECT_EQ(primary, "a");

    const auto followers = queue.finish("a");
    ASSERT_EQ(followers.size(), 1u);
    EXPECT_EQ(followers[0].name, "b");

    // After finish() the fingerprint is free: no stale coalescing.
    EXPECT_EQ(queue.submit(request("c", "f1"), nullptr),
              Admission::Enqueued);
    EXPECT_FALSE(queue.live("a"));
    EXPECT_FALSE(queue.live("b"));
}

TEST(RequestQueue, DrainPendingAbandonsFollowersWithPrimaries)
{
    RequestQueue queue(4);
    ASSERT_EQ(queue.submit(request("a", "f1"), nullptr),
              Admission::Enqueued);
    ASSERT_EQ(queue.submit(request("b", "f1"), nullptr),
              Admission::Coalesced);

    const auto drained = queue.drainPending();
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_FALSE(queue.live("a"));
    EXPECT_FALSE(queue.live("b"));
}

// ---------------------------------------- coalescing end to end

TEST(SocketServe, CoalescesIdenticalSubmissionsToOneExecution)
{
    obs::MetricsRegistry::instance().reset();
    const std::string spool = freshDir("coalesce");
    Daemon daemon(socketConfig(spool));

    // Admit N identical requests (one reformatted: identity is the
    // parsed spec, not its bytes) while the executor is idle, from
    // concurrent client threads — exactly what a fleet of clients
    // hitting one daemon looks like.
    constexpr int kClients = 4;
    std::vector<ClientResult> acks(kClients);
    {
        std::vector<std::thread> clients;
        for (int i = 0; i < kClients; ++i)
            clients.emplace_back([&, i] {
                acks[static_cast<std::size_t>(i)] = socketSubmit(
                    daemon.socketPath(),
                    "run" + std::to_string(i),
                    i == 1 ? kSpecReformatted : kSpec,
                    /*priority=*/0, /*wait=*/false,
                    /*timeout_s=*/30.0);
            });
        for (auto &t : clients)
            t.join();
    }
    for (const auto &ack : acks) {
        ASSERT_TRUE(ack.ok) << ack.error;
        ASSERT_EQ(ack.lines.size(), 1u);
        EXPECT_EQ(stateOf(ack.lines[0]), "queued");
    }

    EXPECT_EQ(daemon.drainOnce(), static_cast<std::size_t>(kClients));
    const ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.done, static_cast<std::size_t>(kClients));
    EXPECT_EQ(stats.coalesced,
              static_cast<std::size_t>(kClients - 1));
    EXPECT_EQ(stats.failed, 0u);

    // Exactly one execution: the work counters tick per BatchRunner
    // run, the request counters tick per request served.
    EXPECT_EQ(obs::counter("serve.sims_run").value(), 1u);
    EXPECT_EQ(obs::counter("serve.requests_done").value(),
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(obs::counter("serve.requests_coalesced").value(),
              static_cast<std::uint64_t>(kClients - 1));
    EXPECT_EQ(obs::histogram("serve.request_ms").count(),
              static_cast<std::uint64_t>(kClients));
    // Only the primary's result writes are timed as the deliver
    // stage; followers copy the same bytes.
    EXPECT_EQ(obs::histogram("serve.deliver_ms").count(), 1u);

    // Byte-identical fan-out, and identical to a direct run. The
    // clients race, so any one of them may have arrived first and
    // become the primary; the other three must name it.
    api::BatchConfig reference =
        batchConfigFromJson(parseJson(kSpec));
    const api::BatchResult direct =
        api::BatchRunner(reference).run();
    std::ostringstream csv, json;
    direct.sweeps[0].writeCsv(csv);
    direct.sweeps[0].writeJson(json);
    std::string primary;
    std::vector<std::string> followers;
    for (int i = 0; i < kClients; ++i) {
        const std::string name = "run" + std::to_string(i);
        const fs::path dir = fs::path(daemon.resultsDir()) / name;
        EXPECT_EQ(readFile(dir / "sweep_0.csv"), csv.str()) << dir;
        EXPECT_EQ(readFile(dir / "sweep_0.json"), json.str())
            << dir;
        const JsonValue status =
            parseJsonFile((dir / "status.json").string());
        EXPECT_EQ(status.at("state").asString(), "done");
        // Followers record whose execution served them.
        if (status.find("coalesced_with")) {
            followers.push_back(
                status.at("coalesced_with").asString());
        } else {
            EXPECT_TRUE(primary.empty())
                << "two primaries: " << primary << " and " << name;
            primary = name;
        }
    }
    ASSERT_FALSE(primary.empty());
    EXPECT_EQ(followers.size(),
              static_cast<std::size_t>(kClients - 1));
    for (const auto &served_by : followers)
        EXPECT_EQ(served_by, primary);
}

TEST(SocketServe, MixedIngressCoalescesSpoolOntoSocket)
{
    const std::string spool = freshDir("mixed");
    Daemon daemon(socketConfig(spool));

    // Socket submission lands first (the executor is idle), then an
    // identical spec arrives through the spool.
    const ClientResult ack =
        socketSubmit(daemon.socketPath(), "sock", kSpec, 0,
                     /*wait=*/false, 30.0);
    ASSERT_TRUE(ack.ok) << ack.error;
    writeFile(fs::path(spool) / "file.json", kSpec);

    EXPECT_EQ(daemon.drainOnce(), 2u);
    const ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.done, 2u);
    EXPECT_EQ(stats.coalesced, 1u);

    // The coalesced spool spec was still consumed normally.
    EXPECT_TRUE(fs::exists(fs::path(spool) / "done" /
                           "file.json"));
    EXPECT_EQ(readFile(fs::path(daemon.resultsDir()) / "sock" /
                       "sweep_0.csv"),
              readFile(fs::path(daemon.resultsDir()) / "file" /
                       "sweep_0.csv"));
    const JsonValue status = parseJsonFile(
        (fs::path(daemon.resultsDir()) / "file" / "status.json")
            .string());
    EXPECT_EQ(status.at("state").asString(), "done");
    EXPECT_EQ(status.at("coalesced_with").asString(), "sock");
}

TEST(SocketServe, SpoolSpecWithALiveNameWaitsForALaterDrain)
{
    const std::string spool = freshDir("live_spool_name");
    Daemon daemon(socketConfig(spool));

    // The socket request owns "req" until it finishes, so the spool
    // spec of the same name must stay in the spool, not fail.
    ASSERT_EQ(stateOf(socketSubmit(daemon.socketPath(), "req", kSpec,
                                   0, false, 30.0)
                          .lines.at(0)),
              "queued");
    writeFile(fs::path(spool) / "req.json", kOtherSpec);
    EXPECT_EQ(daemon.drainOnce(), 1u);
    EXPECT_TRUE(fs::exists(fs::path(spool) / "req.json"));
    EXPECT_EQ(daemon.stats().failed, 0u);

    // The name is free again: the next drain serves the spec.
    EXPECT_EQ(daemon.drainOnce(), 1u);
    EXPECT_TRUE(fs::exists(fs::path(spool) / "done" / "req.json"));
    EXPECT_EQ(daemon.stats().done, 2u);
    const JsonValue status = parseJsonFile(
        (fs::path(daemon.resultsDir()) / "req" / "status.json")
            .string());
    EXPECT_EQ(status.at("spec").asString(), "req.json");
    EXPECT_EQ(status.at("state").asString(), "done");
}

TEST(SocketServe, StatsAgreeWithTheServeCountersAcrossBothDoors)
{
    // Deltas, not absolutes: the registry is process-wide.
    const std::vector<std::string> counters = {
        "serve.requests_done", "serve.requests_failed",
        "serve.requests_rejected", "serve.requests_coalesced"};
    std::vector<std::uint64_t> before;
    for (const std::string &name : counters)
        before.push_back(obs::counter(name).value());

    const std::string spool = freshDir("stats_agree");
    Daemon daemon(socketConfig(spool));
    const auto submit = [&](const std::string &name,
                            const char *spec) {
        const ClientResult ack = socketSubmit(
            daemon.socketPath(), name, spec, 0, false, 30.0);
        EXPECT_TRUE(ack.ok) << ack.error;
        return ack.lines.empty() ? std::string() : stateOf(ack.lines[0]);
    };
    EXPECT_EQ(submit("sock", kSpec), "queued");
    EXPECT_EQ(submit("twin", kSpecReformatted), "queued"); // coalesces
    EXPECT_EQ(submit("garbled", "not json"), "rejected");
    EXPECT_EQ(submit("sock", kOtherSpec), "rejected"); // name is live
    writeFile(fs::path(spool) / "file.json", kOtherSpec);
    writeFile(fs::path(spool) / "broken.json", "not json");
    EXPECT_EQ(daemon.drainOnce(), 4u);

    const ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.done, 3u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.rejected, 2u);
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.processed, stats.done + stats.failed);
    const std::size_t fields[] = {stats.done, stats.failed,
                                  stats.rejected, stats.coalesced};
    for (std::size_t i = 0; i < counters.size(); ++i)
        EXPECT_EQ(obs::counter(counters[i]).value() - before[i],
                  fields[i])
            << counters[i];
}

// --------------------------------------------- socket protocol

TEST(SocketServe, SubmitWaitRoundTrip)
{
    const std::string spool = freshDir("roundtrip");
    ServeConfig cfg = socketConfig(spool);
    cfg.once = false;
    cfg.poll_ms = 20;
    std::atomic<bool> stop{false};
    cfg.stop = [&] { return stop.load(); };
    Daemon daemon(cfg);
    std::thread server([&] { daemon.run(); });

    const ClientResult result =
        socketSubmit(daemon.socketPath(), "rt", kSpec, 0,
                     /*wait=*/true, 60.0);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.lines.size(), 2u);
    EXPECT_EQ(stateOf(result.lines[0]), "queued");
    EXPECT_EQ(stateOf(result.lines[1]), "done");

    // wait on a finished request resolves immediately (board or
    // status file, either source is terminal).
    const ClientResult again =
        socketWait(daemon.socketPath(), "rt", 10.0);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(stateOf(again.lines[0]), "done");

    stop.store(true);
    server.join();
    EXPECT_TRUE(fs::exists(fs::path(daemon.resultsDir()) / "rt" /
                           "sweep_0.csv"));
}

TEST(SocketServe, AppliesBackpressureWhenTheQueueIsFull)
{
    const std::string spool = freshDir("backpressure");
    ServeConfig cfg = socketConfig(spool);
    cfg.max_queue = 1;
    Daemon daemon(cfg); // not draining: the queue stays full

    const ClientResult first = socketSubmit(
        daemon.socketPath(), "one", kSpec, 0, false, 30.0);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(stateOf(first.lines[0]), "queued");

    // A *different* request must bounce; an identical one rides
    // along for free.
    const ClientResult second = socketSubmit(
        daemon.socketPath(), "two", kOtherSpec, 0, false, 30.0);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(stateOf(second.lines[0]), "rejected");

    const ClientResult third = socketSubmit(
        daemon.socketPath(), "three", kSpec, 0, false, 30.0);
    ASSERT_TRUE(third.ok) << third.error;
    EXPECT_EQ(stateOf(third.lines[0]), "queued");

    EXPECT_EQ(daemon.drainOnce(), 2u);
    EXPECT_EQ(daemon.stats().rejected, 1u);
    EXPECT_EQ(daemon.stats().done, 2u);
}

TEST(SocketServe, RejectsMalformedSpecsAndBadNames)
{
    const std::string spool = freshDir("reject");
    Daemon daemon(socketConfig(spool));

    const ClientResult bad_spec = socketSubmit(
        daemon.socketPath(), "bad", "not json", 0, false, 30.0);
    ASSERT_TRUE(bad_spec.ok) << bad_spec.error;
    EXPECT_EQ(stateOf(bad_spec.lines[0]), "rejected");

    const ClientResult bad_name = socketSubmit(
        daemon.socketPath(), "../escape", kSpec, 0, false, 30.0);
    ASSERT_TRUE(bad_name.ok) << bad_name.error;
    EXPECT_EQ(stateOf(bad_name.lines[0]), "rejected");

    // A name collision with a live request is a rejection, not a
    // clobber.
    ASSERT_EQ(stateOf(socketSubmit(daemon.socketPath(), "dup",
                                   kSpec, 0, false, 30.0)
                          .lines[0]),
              "queued");
    EXPECT_EQ(stateOf(socketSubmit(daemon.socketPath(), "dup",
                                   kOtherSpec, 0, false, 30.0)
                          .lines[0]),
              "rejected");
    EXPECT_EQ(daemon.drainOnce(), 1u);
}

TEST(SocketServe, WaitTimesOutOnUnknownRequests)
{
    const std::string spool = freshDir("timeout");
    Daemon daemon(socketConfig(spool));

    const ClientResult result =
        socketWait(daemon.socketPath(), "never", 0.2);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(stateOf(result.lines[0]), "error");
    EXPECT_NE(parseJson(result.lines[0])
                  .at("error")
                  .asString()
                  .find("timed out"),
              std::string::npos);
}

TEST(SocketServe, WaitFindsResultsWrittenByAnEarlierDaemon)
{
    // waitFor's disk fallback: a request that finished before this
    // daemon existed (fresh completion board) must still resolve
    // from its on-disk status.json, not time out.
    const std::string spool = freshDir("wait_disk");
    writeFile(fs::path(spool) / "run0.json", kSpec);
    {
        Daemon first(socketConfig(spool));
        first.drainOnce();
    }
    Daemon second(socketConfig(spool));
    EXPECT_EQ(stateOf(second.waitFor("run0", 2.0)), "done");
}

TEST(SocketServe, PriorityOrdersExecutionAcrossTheSocket)
{
    obs::MetricsRegistry::instance().reset();
    const std::string spool = freshDir("priority");
    Daemon daemon(socketConfig(spool));

    // Admitted low before high while the executor is idle; the
    // high-priority request must still execute first.
    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "low", kSpec, 0,
                             false, 30.0)
                    .ok);
    ASSERT_TRUE(socketSubmit(daemon.socketPath(), "high",
                             kOtherSpec, 7, false, 30.0)
                    .ok);
    EXPECT_EQ(daemon.drainOnce(), 2u);

    const auto finishedAt = [&](const char *name) {
        return parseJsonFile((fs::path(daemon.resultsDir()) /
                              name / "status.json")
                                 .string())
            .at("finished_at")
            .asString();
    };
    EXPECT_LE(finishedAt("high"), finishedAt("low"));
}

TEST(SocketServe, RefusesASocketServedByAnotherDaemon)
{
    const std::string spool = freshDir("busy");
    Daemon daemon(socketConfig(spool));
    EXPECT_THROW(Daemon(socketConfig(spool)),
                 std::invalid_argument);

    // A *stale* socket file (bound once by a dead process, nobody
    // listening) is reclaimed instead of wedging the daemon.
    const std::string other = freshDir("busy_stale");
    const ServeConfig cfg = socketConfig(other);
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        ASSERT_LT(cfg.socket_path.size(), sizeof addr.sun_path);
        std::memcpy(addr.sun_path, cfg.socket_path.c_str(),
                    cfg.socket_path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd,
                         reinterpret_cast<const sockaddr *>(&addr),
                         sizeof addr),
                  0);
        ::close(fd); // the socket file outlives the process
    }
    ASSERT_TRUE(fs::exists(cfg.socket_path));
    Daemon reclaimed(cfg);
    const ClientResult ping =
        socketWait(reclaimed.socketPath(), "nothing", 0.1);
    ASSERT_TRUE(ping.ok) << ping.error;
    EXPECT_EQ(stateOf(ping.lines[0]), "error");
}

} // namespace
