/**
 * @file
 * Concurrency stress tests, written to run under ThreadSanitizer
 * (the CI TSan lane builds with -DLSIM_SANITIZE=thread and runs this
 * binary): many submitter threads hammering one ThreadPool, two
 * serve::Daemon instances draining one spool, and concurrent
 * save/load traffic on one ProfileStore. The assertions check the
 * exactly-once execution contracts; TSan checks the synchronization
 * that backs them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment.hh"
#include "api/parallel.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "serve/daemon.hh"
#include "serve/queue.hh"
#include "store/profile_store.hh"

namespace
{

namespace fs = std::filesystem;
using namespace lsim;

/** Fresh per-test directory under gtest's temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lsim_stress_" + name);
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

/**
 * Many threads submitting overlapping run() calls to ONE pool. The
 * pool's contract is per-run, not global: every submitter must see
 * each of its own indices executed exactly once, however the calls
 * interleave. (Overlapping submitters degrade gracefully — workers
 * help the latest generation, each caller participates in its own
 * job — so this is legal, just contended.)
 */
TEST(ThreadPoolStress, ManySubmittersSeeExactlyOnceExecution)
{
    constexpr unsigned kSubmitters = 6;
    constexpr unsigned kRunsEach = 20;
    constexpr std::size_t kCount = 48;

    api::detail::ThreadPool pool(4);
    std::atomic<bool> failed{false};

    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (unsigned s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &failed] {
            for (unsigned r = 0; r < kRunsEach; ++r) {
                std::vector<std::atomic<int>> hits(kCount);
                pool.run(kCount, [&hits](std::size_t i) {
                    hits[i].fetch_add(1);
                });
                for (std::size_t i = 0; i < kCount; ++i)
                    if (hits[i].load() != 1)
                        failed.store(true);
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    EXPECT_FALSE(failed.load())
        << "some index ran zero or multiple times";
}

/** Destroying a pool that never ran a job must not hang or race. */
TEST(ThreadPoolStress, IdlePoolShutdown)
{
    for (int i = 0; i < 16; ++i)
        api::detail::ThreadPool pool(3);
}

constexpr const char *kSpec =
    R"({"sweeps": [{"benchmarks": ["gcc"], "steps": 2,
                    "insts": 20000}]})";

/**
 * Two daemons draining ONE spool concurrently (the documented
 * multi-daemon deployment: claiming is a rename, exactly one wins
 * each spec). Every spec must be executed exactly once — the done
 * counters sum to the spec count, done/ holds every spec, work/ and
 * the spool root end empty, and every result directory reaches the
 * "done" state.
 */
TEST(ServeStress, TwoDaemonsDrainOneSpoolExactlyOnce)
{
    constexpr int kSpecs = 12;
    const std::string spool = freshDir("two_daemons");
    const std::string cache = freshDir("two_daemons_cache");

    serve::ServeConfig cfg;
    cfg.spool_dir = spool;
    cfg.cache_dir = cache;
    cfg.threads = 2;
    cfg.once = true;

    serve::Daemon a(cfg);
    serve::Daemon b(cfg);

    std::vector<std::string> stems;
    for (int i = 0; i < kSpecs; ++i) {
        std::ostringstream name;
        name << "req" << (i < 10 ? "0" : "") << i;
        stems.push_back(name.str());
        writeFile(fs::path(spool) / (name.str() + ".json"), kSpec);
    }

    serve::ServeStats sa, sb;
    std::thread ta([&] { sa = a.run(); });
    std::thread tb([&] { sb = b.run(); });
    ta.join();
    tb.join();

    EXPECT_EQ(sa.done + sb.done, static_cast<std::size_t>(kSpecs));
    EXPECT_EQ(sa.failed + sb.failed, 0u);

    std::size_t done_entries = 0;
    for (const auto &entry :
         fs::directory_iterator(fs::path(spool) / "done"))
        done_entries += entry.is_regular_file();
    EXPECT_EQ(done_entries, static_cast<std::size_t>(kSpecs));

    EXPECT_TRUE(fs::is_empty(fs::path(spool) / "work"))
        << "orphaned claims left in work/";
    for (const auto &entry : fs::directory_iterator(spool)) {
        // The daemons' metrics snapshot legitimately lives in the
        // spool root (the name is reserved, never a spec).
        if (entry.path().filename() == "metrics.json")
            continue;
        EXPECT_TRUE(entry.is_directory())
            << "unconsumed spec " << entry.path();
    }

    for (const auto &stem : stems) {
        const auto status = parseJson(readFile(
            fs::path(a.resultsDir()) / stem / "status.json"));
        EXPECT_EQ(status.at("state").asString(), "done") << stem;
    }
}

/**
 * One ProfileStore instance shared by several threads: concurrent
 * save() of distinct keys, repeated save() of one contended key, and
 * load() traffic racing both. The store writes entries atomically
 * and keeps no other state, so every load must return either
 * "absent" or a complete, uncorrupted sim.
 */
TEST(StoreStress, ConcurrentSaveAndLoadOnOneInstance)
{
    const std::string dir = freshDir("store");
    store::ProfileStore store(dir);

    const harness::WorkloadSim sim = api::Experiment::builder()
                                         .workload("gcc")
                                         .insts(20000)
                                         .session()
                                         .sim();

    constexpr unsigned kThreads = 4;
    constexpr unsigned kIters = 8;
    std::atomic<int> torn{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &sim, &torn, t] {
            for (unsigned i = 0; i < kIters; ++i) {
                const std::string mine = std::string("t") +
                    std::to_string(t) + "-" + std::to_string(i);
                store.save(mine, sim);
                store.save("shared", sim);
                const auto own = store.load(mine);
                if (!own || own->sim.cycles != sim.sim.cycles)
                    torn.fetch_add(1);
                const auto shared = store.load("shared");
                if (shared &&
                    shared->sim.cycles != sim.sim.cycles)
                    torn.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(torn.load(), 0) << "a load returned a torn entry";
    EXPECT_EQ(store.list().size(),
              static_cast<std::size_t>(kThreads * kIters + 1));
}

/*
 * Hammer the admission queue from eight submitters plus two
 * executors with fault injection armed, so the TSan lane exercises
 * the same lock interleavings (queue mutex, fault registry, metrics
 * registry) the static lock-order analyzer reasons about.  Every
 * admitted request must be executed exactly once and every coalesced
 * follower must come back from exactly one finish().
 */
TEST(QueueStress, SubmitCoalesceFinishUnderFaults)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 48;
    constexpr const char *kPoint = "stress.queue.submit";

    fault::reset();
    fault::configure(std::string(kPoint) + ":prob=0.25:seed=11");

    serve::RequestQueue queue(16);

    std::atomic<int> enqueued{0};
    std::atomic<int> coalesced{0};
    std::atomic<int> rejected_full{0};
    std::atomic<int> rejected_name{0};
    std::atomic<int> faulted{0};
    std::atomic<int> executed{0};
    std::atomic<int> fanned{0};
    std::atomic<bool> done_submitting{false};

    std::vector<std::thread> executors;
    for (int e = 0; e < 2; ++e) {
        executors.emplace_back([&] {
            for (;;) {
                if (!queue.waitForWork(std::chrono::milliseconds(1))) {
                    if (done_submitting.load() && queue.depth() == 0)
                        return;
                    continue;
                }
                auto req = queue.pop();
                if (!req)
                    continue;
                const auto followers = queue.finish(req->name);
                executed.fetch_add(1);
                fanned.fetch_add(static_cast<int>(followers.size()));
            }
        });
    }

    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                // An ingress that dies before admission: the queue
                // must never learn about this request.
                if (LSIM_FAULT(kPoint)) {
                    faulted.fetch_add(1);
                    continue;
                }
                serve::QueuedRequest req;
                if (i % 8 == 7) {
                    // Shared name, unique fingerprint: collides with
                    // a live namesake as RejectedName.
                    req.name = "dup-" + std::to_string(t % 2);
                    req.fingerprint = "fp-uniq-" +
                        std::to_string(t * kIters + i);
                } else {
                    // Unique name, fingerprint drawn from a small
                    // pool: collides with in-flight work as
                    // Coalesced.
                    req.name = std::string("s") + std::to_string(t) +
                        "-" + std::to_string(i);
                    req.fingerprint =
                        "fp-" + std::to_string((t * kIters + i) % 6);
                }
                req.priority = i % 3;
                req.ingress = serve::Ingress::Socket;
                std::string primary;
                switch (queue.submit(std::move(req), &primary)) {
                case serve::Admission::Enqueued:
                    enqueued.fetch_add(1);
                    break;
                case serve::Admission::Coalesced:
                    coalesced.fetch_add(1);
                    EXPECT_FALSE(primary.empty());
                    break;
                case serve::Admission::RejectedFull:
                    rejected_full.fetch_add(1);
                    break;
                case serve::Admission::RejectedName:
                    rejected_name.fetch_add(1);
                    break;
                }
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    done_submitting.store(true);
    for (auto &t : executors)
        t.join();

    // Every attempt is accounted for exactly once.
    EXPECT_EQ(enqueued.load() + coalesced.load() + rejected_full.load() +
                  rejected_name.load() + faulted.load(),
              kThreads * kIters);
    // Exactly-once execution: each admitted primary finishes once...
    EXPECT_EQ(executed.load(), enqueued.load());
    // ...and each coalesced follower is fanned out by one finish().
    EXPECT_EQ(fanned.load(), coalesced.load());
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_TRUE(queue.drainPending().empty());

    // The fault point was consulted on every attempt and actually
    // fired (faulted counts exactly the fired attempts).
    EXPECT_EQ(fault::hits(kPoint),
              static_cast<std::uint64_t>(kThreads * kIters));
    EXPECT_EQ(fault::fired(kPoint),
              static_cast<std::uint64_t>(faulted.load()));
    EXPECT_GT(faulted.load(), 0);
    fault::reset();
}

} // namespace
