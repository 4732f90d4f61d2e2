/**
 * @file
 * Unit tests for the lsim::store subsystem and its integration with
 * SweepRunner / BatchRunner: bit-exact serialization round trips,
 * byte-identical warm-cache sweeps, rejection of corrupted or
 * version-mismatched entries, cross-request simulation dedup, and
 * imported idle profiles flowing through the facade.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "api/batch.hh"
#include "api/experiment.hh"
#include "api/sweep.hh"
#include "obs/metrics.hh"
#include "store/profile_store.hh"
#include "store/serialize.hh"
#include "trace/profile.hh"

namespace
{

namespace fs = std::filesystem;
using namespace lsim;
using namespace lsim::api;
using namespace lsim::store;

constexpr std::uint64_t kInsts = 20000;

/** Fresh per-test directory under gtest's temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
        ("lsim_store_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

harness::WorkloadSim
simulateSmall(const std::string &bench)
{
    return Experiment::builder()
        .workload(bench)
        .insts(kInsts)
        .session()
        .sim();
}

void
expectBitExact(const harness::WorkloadSim &a,
               const harness::WorkloadSim &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_fus, b.num_fus);

    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.committed, b.sim.committed);
    EXPECT_EQ(a.sim.ipc, b.sim.ipc);
    EXPECT_EQ(a.sim.bpred.lookups, b.sim.bpred.lookups);
    EXPECT_EQ(a.sim.bpred.cond_branches, b.sim.bpred.cond_branches);
    EXPECT_EQ(a.sim.bpred.dir_mispredicts,
              b.sim.bpred.dir_mispredicts);
    EXPECT_EQ(a.sim.bpred.target_mispredicts,
              b.sim.bpred.target_mispredicts);
    EXPECT_EQ(a.sim.bpred.btb_cold_misses,
              b.sim.bpred.btb_cold_misses);
    EXPECT_EQ(a.sim.bpred.ras_pushes, b.sim.bpred.ras_pushes);
    EXPECT_EQ(a.sim.bpred.ras_pops, b.sim.bpred.ras_pops);
    EXPECT_EQ(a.sim.l1i.accesses, b.sim.l1i.accesses);
    EXPECT_EQ(a.sim.l1i.misses, b.sim.l1i.misses);
    EXPECT_EQ(a.sim.l1i.writebacks, b.sim.l1i.writebacks);
    EXPECT_EQ(a.sim.l1d.accesses, b.sim.l1d.accesses);
    EXPECT_EQ(a.sim.l1d.misses, b.sim.l1d.misses);
    EXPECT_EQ(a.sim.l2.accesses, b.sim.l2.accesses);
    EXPECT_EQ(a.sim.l2.misses, b.sim.l2.misses);
    EXPECT_EQ(a.sim.itlb.accesses, b.sim.itlb.accesses);
    EXPECT_EQ(a.sim.itlb.misses, b.sim.itlb.misses);
    EXPECT_EQ(a.sim.dtlb.accesses, b.sim.dtlb.accesses);
    EXPECT_EQ(a.sim.dtlb.misses, b.sim.dtlb.misses);
    EXPECT_EQ(a.sim.fu_utilization, b.sim.fu_utilization);
    EXPECT_EQ(a.sim.mean_fu_idle_fraction,
              b.sim.mean_fu_idle_fraction);

    // The sufficient statistic must survive exactly.
    EXPECT_EQ(a.idle.intervals, b.idle.intervals);
    EXPECT_EQ(a.idle.active_cycles, b.idle.active_cycles);
    EXPECT_EQ(a.idle.idle_cycles, b.idle.idle_cycles);
    EXPECT_EQ(a.idle.num_fus, b.idle.num_fus);

    ASSERT_EQ(a.idle_hist.numBuckets(), b.idle_hist.numBuckets());
    EXPECT_EQ(a.idle_hist.clampValue(), b.idle_hist.clampValue());
    EXPECT_EQ(a.idle_hist.totalCount(), b.idle_hist.totalCount());
    for (std::size_t i = 0; i < a.idle_hist.numBuckets(); ++i)
        EXPECT_EQ(a.idle_hist.bucketWeight(i),
                  b.idle_hist.bucketWeight(i));
}

TEST(Serialize, WorkloadSimRoundTripIsBitExact)
{
    const auto original = simulateSmall("gcc");

    std::ostringstream out;
    BinaryWriter w(out);
    writeWorkloadSim(w, original);
    const std::string bytes = out.str();

    std::istringstream in(bytes);
    BinaryReader r(in, bytes.size());
    const auto restored = readWorkloadSim(r);
    EXPECT_TRUE(r.exhausted());
    expectBitExact(original, restored);
}

TEST(Serialize, TruncatedPayloadThrows)
{
    const auto original = simulateSmall("mst");
    std::ostringstream out;
    BinaryWriter w(out);
    writeWorkloadSim(w, original);
    const std::string bytes = out.str();

    for (std::size_t cut : {std::size_t{0}, std::size_t{5},
                            bytes.size() / 2, bytes.size() - 1}) {
        std::istringstream in(bytes.substr(0, cut));
        BinaryReader r(in, cut);
        EXPECT_THROW((void)readWorkloadSim(r), StoreError)
            << "at cut " << cut;
    }
}

TEST(SimKey, FingerprintSeparatesEveryKnob)
{
    const auto base = [] {
        SimKey key;
        key.profile = trace::profileByName("gcc");
        key.fus = 2;
        key.insts = kInsts;
        key.seed = 1;
        return key;
    };
    const std::string reference = base().fingerprint();
    EXPECT_EQ(reference, base().fingerprint()) << "not deterministic";
    EXPECT_EQ(reference.substr(0, 4), "gcc-");

    SimKey other = base();
    other.fus = 3;
    EXPECT_NE(reference, other.fingerprint());
    other = base();
    other.insts = kInsts + 1;
    EXPECT_NE(reference, other.fingerprint());
    other = base();
    other.seed = 2;
    EXPECT_NE(reference, other.fingerprint());
    other = base();
    other.profile.frac_load += 0.01;
    EXPECT_NE(reference, other.fingerprint());
    other = base();
    other.base = other.base.withL2Latency(32);
    EXPECT_NE(reference, other.fingerprint());
}

TEST(ProfileStore, SaveLoadRoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    const ProfileStore db(dir);
    const auto sim = simulateSmall("gcc");
    db.save("gcc-test", sim);

    const auto loaded = db.load("gcc-test");
    ASSERT_TRUE(loaded.has_value());
    expectBitExact(sim, *loaded);

    EXPECT_FALSE(db.load("no-such-key").has_value());

    const auto entries = db.list();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].key, "gcc-test");
}

TEST(ProfileStore, RemoveDeletesExactlyOneEntry)
{
    const std::string dir = freshDir("remove");
    const ProfileStore db(dir);
    const auto sim = simulateSmall("gcc");
    db.save("keep", sim);
    db.save("drop", sim);

    EXPECT_TRUE(db.remove("drop"));
    EXPECT_FALSE(db.remove("drop"));   // already gone
    EXPECT_FALSE(db.remove("absent")); // never existed
    EXPECT_FALSE(db.load("drop").has_value());
    ASSERT_TRUE(db.load("keep").has_value());
    EXPECT_EQ(db.list().size(), 1u);
}

/** Backdate @p key's index touch-time by @p seconds (as a restarted
 * process would observe it: rewrite index.json on disk). */
void
backdateIndexTouch(const std::string &dir, const std::string &key,
                   double seconds)
{
    StoreIndex index(dir);
    const IndexEntry *entry = index.find(key);
    ASSERT_NE(entry, nullptr) << key;
    index.touch(key, entry->touched - seconds);
    ASSERT_TRUE(index.save());
}

TEST(ProfileStore, GcEvictsByIndexAge)
{
    const std::string dir = freshDir("gc_age");
    const auto sim = simulateSmall("gcc");
    {
        const ProfileStore db(dir);
        db.save("old", sim);
        db.save("fresh", sim);
    }
    // Age comes from the index touch-time (the LRU signal), not the
    // file mtime — backdate "old" past the limit.
    backdateIndexTouch(dir, "old", 48.0 * 3600.0);

    const ProfileStore db(dir);
    ProfileStore::GcOptions options;
    options.max_age_seconds = 24.0 * 3600.0;
    const auto stats = db.gc(options);
    EXPECT_EQ(stats.scanned, 2u);
    EXPECT_EQ(stats.removed, 1u);
    EXPECT_EQ(stats.stat_errors, 0u);
    EXPECT_LT(stats.bytes_after, stats.bytes_before);
    EXPECT_FALSE(db.load("old").has_value());
    EXPECT_TRUE(db.load("fresh").has_value());
}

TEST(ProfileStore, GcFallsBackToMtimeForUnindexedEntries)
{
    const std::string dir = freshDir("gc_mtime");
    const auto sim = simulateSmall("gcc");
    {
        const ProfileStore db(dir);
        db.save("old", sim);
        db.save("fresh", sim);
    }
    // A pre-index store: no index.json, only the entry files. mtime
    // is then the best available age signal.
    fs::remove(fs::path(dir) / StoreIndex::kFileName);
    fs::last_write_time(fs::path(dir) / "old.lsimprof",
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(48));

    const ProfileStore db(dir);
    ProfileStore::GcOptions options;
    options.max_age_seconds = 24.0 * 3600.0;
    const auto stats = db.gc(options);
    EXPECT_EQ(stats.scanned, 2u);
    EXPECT_EQ(stats.removed, 1u);
    EXPECT_FALSE(db.load("old").has_value());
    EXPECT_TRUE(db.load("fresh").has_value());
}

TEST(ProfileStore, GcEvictsLeastRecentlyUsedFirstUntilUnderBudget)
{
    const std::string dir = freshDir("gc_bytes");
    const auto sim = simulateSmall("gcc");
    {
        const ProfileStore db(dir);
        for (const char *key : {"a", "b", "c"})
            db.save(key, sim);
    }
    // Distinct touch-times, coldest first: a, then b, then c.
    backdateIndexTouch(dir, "a", 3.0 * 3600.0);
    backdateIndexTouch(dir, "b", 2.0 * 3600.0);
    backdateIndexTouch(dir, "c", 1.0 * 3600.0);
    const std::uint64_t each =
        fs::file_size(fs::path(dir) / "a.lsimprof");

    const ProfileStore db(dir);
    ProfileStore::GcOptions options;
    options.max_bytes = 2 * each; // room for exactly two entries
    const auto stats = db.gc(options);
    EXPECT_EQ(stats.removed, 1u);
    EXPECT_EQ(stats.bytes_after, 2 * each);
    EXPECT_FALSE(db.load("a").has_value()); // coldest went first
    EXPECT_TRUE(db.load("b").has_value());
    EXPECT_TRUE(db.load("c").has_value());

    // A zero-byte budget clears the store.
    options.max_bytes = 0;
    const auto wipe = db.gc(options);
    EXPECT_EQ(wipe.removed, 2u);
    EXPECT_EQ(wipe.bytes_after, 0u);
    EXPECT_TRUE(db.list().empty());
}

TEST(ProfileStore, LoadRefreshesTheLruSignal)
{
    const std::string dir = freshDir("gc_lru");
    const auto sim = simulateSmall("gcc");
    {
        const ProfileStore db(dir);
        db.save("hot", sim);
        db.save("cold", sim);
    }
    // Both look two days old...
    backdateIndexTouch(dir, "hot", 48.0 * 3600.0);
    backdateIndexTouch(dir, "cold", 48.0 * 3600.0);

    // ...but a load touches "hot", so only "cold" ages out. This is
    // exactly what file mtimes cannot express: reads do not move
    // them.
    const ProfileStore db(dir);
    ASSERT_TRUE(db.load("hot").has_value());
    ProfileStore::GcOptions options;
    options.max_age_seconds = 24.0 * 3600.0;
    const auto stats = db.gc(options);
    EXPECT_EQ(stats.removed, 1u);
    EXPECT_FALSE(db.load("cold").has_value());
    EXPECT_TRUE(db.load("hot").has_value());
}

TEST(ProfileStore, GcWithoutLimitsEvictsNothing)
{
    const std::string dir = freshDir("gc_noop");
    const ProfileStore db(dir);
    db.save("only", simulateSmall("gcc"));
    const auto stats = db.gc({});
    EXPECT_EQ(stats.scanned, 1u);
    EXPECT_EQ(stats.removed, 0u);
    EXPECT_EQ(stats.bytes_before, stats.bytes_after);
    EXPECT_TRUE(db.load("only").has_value());
}

TEST(ProfileStore, CorruptedEntryIsRejected)
{
    const std::string dir = freshDir("corrupt");
    const ProfileStore db(dir);
    db.save("entry", simulateSmall("mst"));
    const std::string path =
        dir + "/entry" + std::string(ProfileStore::kExtension);

    // Flip one byte in the middle of the payload.
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    f.put('\xff');
    f.close();

    EXPECT_FALSE(db.load("entry").has_value());
}

TEST(ProfileStore, TruncatedEntryIsRejected)
{
    const std::string dir = freshDir("truncated");
    const ProfileStore db(dir);
    db.save("entry", simulateSmall("mst"));
    const std::string path =
        dir + "/entry" + std::string(ProfileStore::kExtension);
    fs::resize_file(path, fs::file_size(path) / 2);
    EXPECT_FALSE(db.load("entry").has_value());
}

TEST(ProfileStore, VersionMismatchIsRejected)
{
    const std::string dir = freshDir("version");
    const ProfileStore db(dir);
    db.save("entry", simulateSmall("mst"));
    const std::string path =
        dir + "/entry" + std::string(ProfileStore::kExtension);

    // The format version is the 4 bytes right after the magic.
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put('\x7f');
    f.close();
    EXPECT_FALSE(db.load("entry").has_value());
}

SweepConfig
smallSweep(const std::string &cache_dir)
{
    SweepConfig cfg;
    cfg.workloads = {"gcc"};
    cfg.technologies = pSweep(0.05, 0.5, 3);
    cfg.insts = kInsts;
    cfg.threads = 2;
    cfg.cache_dir = cache_dir;
    return cfg;
}

std::string
csvOf(const SweepResult &result)
{
    std::ostringstream ss;
    result.writeCsv(ss);
    return ss.str();
}

std::string
jsonOf(const SweepResult &result)
{
    std::ostringstream ss;
    result.writeJson(ss);
    return ss.str();
}

TEST(CachedSweep, WarmRunIsByteIdenticalAndSkipsPhase1)
{
    const std::string dir = freshDir("warm");

    const auto cold = SweepRunner(smallSweep(dir)).run();
    EXPECT_EQ(cold.stats.sims_run, 1u);
    EXPECT_EQ(cold.stats.cache_hits, 0u);

    const auto warm = SweepRunner(smallSweep(dir)).run();
    EXPECT_EQ(warm.stats.sims_run, 0u) << "phase 1 must be skipped";
    EXPECT_EQ(warm.stats.cache_hits, 1u);

    EXPECT_EQ(csvOf(cold), csvOf(warm));
    EXPECT_EQ(jsonOf(cold), jsonOf(warm));

    // And both match an uncached reference run.
    auto uncached_cfg = smallSweep("");
    const auto uncached = SweepRunner(uncached_cfg).run();
    EXPECT_EQ(csvOf(uncached), csvOf(warm));
    EXPECT_EQ(jsonOf(uncached), jsonOf(warm));
}

TEST(CachedSweep, CorruptedCacheEntryIsResimulated)
{
    const std::string dir = freshDir("resim");
    const auto cold = SweepRunner(smallSweep(dir)).run();

    // Corrupt every stored entry.
    for (const auto &de : fs::directory_iterator(dir)) {
        std::fstream f(de.path(), std::ios::in | std::ios::out |
                                      std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            fs::file_size(de.path()) / 2));
        f.put('\x55');
    }

    const auto retry = SweepRunner(smallSweep(dir)).run();
    EXPECT_EQ(retry.stats.sims_run, 1u)
        << "a corrupted entry must be re-simulated, never trusted";
    EXPECT_EQ(retry.stats.cache_hits, 0u);
    EXPECT_EQ(csvOf(cold), csvOf(retry));

    // The re-simulation healed the store.
    const auto healed = SweepRunner(smallSweep(dir)).run();
    EXPECT_EQ(healed.stats.cache_hits, 1u);
}

TEST(CachedSweep, DifferentConfigsDoNotShareEntries)
{
    const std::string dir = freshDir("keyed");
    (void)SweepRunner(smallSweep(dir)).run();

    auto other = smallSweep(dir);
    other.seed = 7;
    const auto run = SweepRunner(other).run();
    EXPECT_EQ(run.stats.sims_run, 1u)
        << "a different seed must miss the cache";
}

TEST(Batch, SharedWorkloadSimulatesExactlyOnce)
{
    // The acceptance criterion: two configs sharing one workload
    // run that workload's timing simulation exactly once.
    SweepConfig a;
    a.workloads = {"gcc", "mst"};
    a.technologies = pSweep(0.05, 0.5, 3);
    a.insts = kInsts;

    SweepConfig b;
    b.workloads = {"gcc"};
    b.policies = {"max-sleep", "timeout:64"};
    b.technologies = pSweep(0.1, 0.4, 2);
    b.insts = kInsts;

    BatchConfig batch;
    batch.sweeps = {a, b};
    batch.threads = 2;
    const auto result = BatchRunner(batch).run();

    EXPECT_EQ(result.stats.requested_sims, 3u);
    EXPECT_EQ(result.stats.unique_sims, 2u) << "gcc must dedup";
    EXPECT_EQ(result.stats.sims_run, 2u);
    EXPECT_EQ(result.stats.cache_hits, 0u);

    // Each result is byte-identical to running its config alone.
    ASSERT_EQ(result.sweeps.size(), 2u);
    EXPECT_EQ(csvOf(result.sweeps[0]), csvOf(SweepRunner(a).run()));
    EXPECT_EQ(jsonOf(result.sweeps[1]),
              jsonOf(SweepRunner(b).run()));
}

TEST(Batch, ConsultsTheSharedStore)
{
    const std::string dir = freshDir("batchcache");
    (void)SweepRunner(smallSweep(dir)).run(); // prime with gcc

    SweepConfig a = smallSweep("");
    SweepConfig b = smallSweep("");
    b.workloads = {"gcc", "mst"};

    BatchConfig batch;
    batch.sweeps = {a, b};
    batch.cache_dir = dir;
    const auto result = BatchRunner(batch).run();
    EXPECT_EQ(result.stats.unique_sims, 2u);
    EXPECT_EQ(result.stats.cache_hits, 1u) << "gcc was primed";
    EXPECT_EQ(result.stats.sims_run, 1u) << "only mst is new";
}

TEST(Batch, HonorsPerSweepCacheDirs)
{
    // With no batch-level cache_dir, each sweep's own store must be
    // consulted and updated.
    const std::string dir_a = freshDir("persweep_a");
    const std::string dir_b = freshDir("persweep_b");
    (void)SweepRunner(smallSweep(dir_b)).run(); // prime B with gcc

    SweepConfig a = smallSweep(dir_a); // cold store
    SweepConfig b = smallSweep(dir_b); // warm store

    BatchConfig batch;
    batch.sweeps = {a, b};
    const auto result = BatchRunner(batch).run();
    // The shared gcc task may be served from either sweep's store —
    // B's is warm, so nothing should simulate.
    EXPECT_EQ(result.stats.unique_sims, 1u);
    EXPECT_EQ(result.stats.cache_hits, 1u);
    EXPECT_EQ(result.stats.sims_run, 0u);
}

TEST(Imports, IdleProfileJsonFlowsThroughSweep)
{
    const std::string dir = freshDir("imports");
    const std::string path = dir + "/measured.json";
    {
        std::ofstream out(path);
        out << R"({"name": "measured-alu", "num_fus": 2,
                   "active_cycles": 7300, "idle_cycles": 2700,
                   "intervals": [[1, 700], [2, 500], [10, 100]]})";
    }

    SweepConfig cfg;
    cfg.workloads = {"gcc"};
    cfg.imports = {path};
    cfg.technologies = pSweep(0.05, 0.5, 2);
    cfg.insts = kInsts;
    const auto result = SweepRunner(cfg).run();

    ASSERT_EQ(result.workloads.size(), 2u);
    EXPECT_EQ(result.workloads[1], "measured-alu");
    EXPECT_EQ(result.stats.imported, 1u);
    EXPECT_EQ(result.stats.sims_run, 1u) << "only gcc simulates";

    // The imported cell must equal a direct facade evaluation of
    // the same idle profile.
    const harness::IdleProfile &idle = result.sims[1].idle;
    EXPECT_EQ(idle.idle_cycles, 2700u);
    const auto direct =
        evaluateProfile(idle, result.technologies[0]);
    const auto &cell = result.cell(1, 0).policies;
    ASSERT_EQ(cell.size(), direct.size());
    for (std::size_t i = 0; i < cell.size(); ++i) {
        EXPECT_EQ(cell[i].name, direct[i].name);
        EXPECT_EQ(cell[i].energy, direct[i].energy);
    }
}

TEST(Imports, ShadowingASimulatedWorkloadIsRejected)
{
    const std::string dir = freshDir("shadow");
    const std::string path = dir + "/gcc.json";
    std::ofstream(path) <<
        R"({"name": "gcc", "num_fus": 1, "active_cycles": 10,
            "idle_cycles": 2, "intervals": [[2, 1]]})";

    // Explicitly requested gcc, and defaulted (full-suite) gcc,
    // must both refuse to be silently replaced by external data.
    SweepConfig cfg;
    cfg.workloads = {"gcc"};
    cfg.imports = {path};
    cfg.technologies = pSweep(0.05, 0.5, 2);
    EXPECT_THROW(SweepRunner{cfg}, std::invalid_argument);

    SweepConfig whole_suite;
    whole_suite.imports = {path};
    whole_suite.technologies = pSweep(0.05, 0.5, 2);
    EXPECT_THROW(SweepRunner{whole_suite}, std::invalid_argument);
}

TEST(Imports, MalformedIdleProfileIsRejected)
{
    const std::string dir = freshDir("badimports");

    const auto rejects = [&](const char *text) {
        const std::string path = dir + "/bad.json";
        std::ofstream(path) << text;
        SweepConfig cfg;
        cfg.workloads = {"gcc"};
        cfg.imports = {path};
        cfg.technologies = pSweep(0.05, 0.5, 2);
        EXPECT_THROW(SweepRunner{cfg}, std::invalid_argument)
            << text;
    };
    // Interval cycles disagree with idle_cycles.
    rejects(R"({"name": "x", "num_fus": 1, "active_cycles": 10,
                "idle_cycles": 99, "intervals": [[1, 1]]})");
    // Non-increasing interval lengths.
    rejects(R"({"name": "x", "num_fus": 1, "active_cycles": 10,
                "idle_cycles": 4, "intervals": [[2, 1], [2, 1]]})");
    // Unknown field.
    rejects(R"({"name": "x", "num_fus": 1, "active_cycles": 10,
                "idle_cycles": 1, "intervals": [[1, 1]],
                "bogus": 1})");
}

TEST(StoreIndex, RoundTripsThroughIndexJson)
{
    const std::string dir = freshDir("index_roundtrip");
    {
        StoreIndex index(dir);
        IndexEntry entry;
        entry.bytes = 4321;
        entry.touched = 1753700000.25;
        entry.name = "gcc";
        entry.fus = 2;
        entry.committed = 500000;
        entry.ipc = 1.619;
        entry.idle_fraction = 0.4125;
        entry.intervals = 125;
        index.put("gcc-abcd", entry);
        ASSERT_TRUE(index.save());
    }
    // The exact bytes: the no-reload fast path compares the file's
    // head with these, so they must not drift.
    std::ifstream in(fs::path(dir) / StoreIndex::kFileName,
                     std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(),
              "{\"version\":2,\"generation\":1,\"entries\":[{"
              "\"key\":\"gcc-abcd\",\"bytes\":4321,"
              "\"touched\":1753700000.25,\"name\":\"gcc\",\"fus\":2,"
              "\"committed\":500000,\"ipc\":1.619,"
              "\"idle_fraction\":0.4125,\"intervals\":125}]}\n");
    StoreIndex reloaded(dir);
    const IndexEntry *entry = reloaded.find("gcc-abcd");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->bytes, 4321u);
    EXPECT_DOUBLE_EQ(entry->touched, 1753700000.25);
    EXPECT_EQ(entry->name, "gcc");
    EXPECT_EQ(entry->fus, 2u);
    EXPECT_EQ(entry->committed, 500000u);
    EXPECT_DOUBLE_EQ(entry->ipc, 1.619);
    EXPECT_DOUBLE_EQ(entry->idle_fraction, 0.4125);
    EXPECT_EQ(entry->intervals, 125u);
    EXPECT_EQ(reloaded.find("absent"), nullptr);
}

TEST(StoreIndex, MalformedIndexFileIsIgnored)
{
    const std::string dir = freshDir("index_malformed");
    std::ofstream(fs::path(dir) / StoreIndex::kFileName)
        << "this is not an index";
    StoreIndex index(dir);
    EXPECT_TRUE(index.entries().empty());
}

TEST(StoreIndex, SaveKeepsItInSyncWithTheStore)
{
    const std::string dir = freshDir("index_sync");
    const ProfileStore db(dir);
    const auto sim = simulateSmall("gcc");
    db.save("gcc-key", sim);

    // The index row carries the `ls` summary without reading the
    // entry back.
    StoreIndex index(dir);
    const IndexEntry *entry = index.find("gcc-key");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->name, "gcc");
    EXPECT_EQ(entry->fus, sim.num_fus);
    EXPECT_EQ(entry->committed, sim.sim.committed);
    // Summary doubles round-trip through JSON at the writer's 12
    // significant digits — near, not bit-exact (the entry file, not
    // the index, is the exact record).
    EXPECT_NEAR(entry->ipc, sim.sim.ipc, 1e-9);
    EXPECT_EQ(entry->intervals, sim.idle.numIntervals());
    EXPECT_EQ(entry->bytes,
              fs::file_size(fs::path(dir) / "gcc-key.lsimprof"));
    EXPECT_GT(entry->touched, 0.0);

    // remove() drops the row too.
    EXPECT_TRUE(db.remove("gcc-key"));
    EXPECT_EQ(StoreIndex(dir).find("gcc-key"), nullptr);
}

TEST(StoreIndex, SummariesRebuildAMissingIndex)
{
    const std::string dir = freshDir("index_rebuild");
    const auto sim = simulateSmall("gcc");
    {
        const ProfileStore db(dir);
        db.save("one", sim);
        db.save("two", sim);
    }
    // A pre-index store (or a deleted index): summaries() must
    // still list everything and adopt it into a fresh index.
    fs::remove(fs::path(dir) / StoreIndex::kFileName);

    const ProfileStore db(dir);
    const auto rows = db.summaries();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].key, "one");
    EXPECT_EQ(rows[1].key, "two");
    EXPECT_EQ(rows[0].entry.name, "gcc");
    EXPECT_TRUE(fs::exists(fs::path(dir) / StoreIndex::kFileName))
        << "summaries() must persist the rebuilt index";
    EXPECT_NE(StoreIndex(dir).find("one"), nullptr);
}

TEST(StoreIndex, SummariesDropRowsWhoseFileVanished)
{
    const std::string dir = freshDir("index_stale");
    const auto sim = simulateSmall("gcc");
    const ProfileStore db(dir);
    db.save("keep", sim);
    db.save("gone", sim);
    // Delete the file behind the store's back (another process's
    // rm/gc): the stale index row must disappear, not be listed.
    fs::remove(fs::path(dir) / "gone.lsimprof");

    const auto rows = db.summaries();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].key, "keep");
    EXPECT_EQ(StoreIndex(dir).find("gone"), nullptr);
}

IndexEntry
namedEntry(const std::string &name)
{
    IndexEntry entry;
    entry.name = name;
    entry.bytes = 1;
    entry.touched = StoreIndex::now();
    return entry;
}

TEST(StoreIndex, GenerationBumpsByOnePerSave)
{
    const std::string dir = freshDir("index_generation");
    StoreIndex index(dir);
    EXPECT_EQ(index.generation(), 0u);
    index.put("a", namedEntry("a"));
    ASSERT_TRUE(index.save());
    EXPECT_EQ(index.generation(), 1u);
    index.put("b", namedEntry("b"));
    ASSERT_TRUE(index.save());
    EXPECT_EQ(index.generation(), 2u);
    EXPECT_EQ(StoreIndex(dir).generation(), 2u);
}

TEST(StoreIndex, VersionOneFilesLoadAsGenerationZero)
{
    const std::string dir = freshDir("index_v1");
    std::ofstream(fs::path(dir) / StoreIndex::kFileName)
        << R"({"version": 1, "entries": [
               {"key": "old", "bytes": 7, "touched": 5.0,
                "name": "gcc", "fus": 2, "committed": 10,
                "ipc": 1.0, "idle_fraction": 0.5,
                "intervals": 3}]})";
    StoreIndex index(dir);
    EXPECT_EQ(index.generation(), 0u);
    ASSERT_NE(index.find("old"), nullptr);
    // The first protocol save upgrades the file in place.
    ASSERT_TRUE(index.save());
    EXPECT_EQ(StoreIndex(dir).generation(), 1u);
    EXPECT_NE(StoreIndex(dir).find("old"), nullptr);
}

std::uint64_t
indexReloads()
{
    return obs::counter("store.index_reloads").value();
}

TEST(StoreIndex, SingleWriterSavesWithoutReloading)
{
    const std::string dir = freshDir("index_no_reload");
    StoreIndex index(dir);
    index.put("a", namedEntry("a"));
    index.put("b", namedEntry("b"));
    ASSERT_TRUE(index.save());

    // Nobody else flushed: the file is still this instance's last
    // write, so later saves merge from memory without a re-parse.
    const std::uint64_t before = indexReloads();
    index.put("c", namedEntry("c"));
    ASSERT_TRUE(index.save());
    index.erase("b");
    index.touch("a", 42.0);
    ASSERT_TRUE(index.save());
    EXPECT_EQ(indexReloads(), before);

    const StoreIndex disk(dir);
    EXPECT_EQ(disk.generation(), 3u);
    ASSERT_NE(disk.find("a"), nullptr);
    EXPECT_EQ(disk.find("a")->touched, 42.0);
    EXPECT_EQ(disk.find("b"), nullptr);
    EXPECT_NE(disk.find("c"), nullptr);

    // An instance that loaded the file saves without a re-parse too.
    StoreIndex reopened(dir);
    reopened.put("d", namedEntry("d"));
    ASSERT_TRUE(reopened.save());
    EXPECT_EQ(indexReloads(), before);
    EXPECT_EQ(StoreIndex(dir).entries().size(), 3u);
}

TEST(StoreIndex, AnotherWritersFlushForcesAReload)
{
    const std::string dir = freshDir("index_reload");
    StoreIndex a(dir);
    a.put("from_a", namedEntry("a"));
    ASSERT_TRUE(a.save());
    StoreIndex b(dir);
    b.put("from_b", namedEntry("b"));
    ASSERT_TRUE(b.save());

    // b flushed after a's last write: a must re-read to keep b's
    // entry, and then holds both.
    const std::uint64_t before = indexReloads();
    a.put("again_a", namedEntry("a"));
    ASSERT_TRUE(a.save());
    EXPECT_EQ(indexReloads(), before + 1);
    EXPECT_NE(a.find("from_b"), nullptr);
    EXPECT_EQ(StoreIndex(dir).entries().size(), 3u);
}

TEST(StoreIndex, SaveMergesConcurrentWritersInsteadOfClobbering)
{
    const std::string dir = freshDir("index_merge");
    // Two instances load the same (empty) image, then flush
    // disjoint entries. Under last-writer-wins the second save
    // would erase the first writer's entry; the reload-merge-bump
    // protocol must keep both.
    StoreIndex a(dir);
    StoreIndex b(dir);
    a.put("from_a", namedEntry("a"));
    b.put("from_b", namedEntry("b"));
    ASSERT_TRUE(a.save());
    ASSERT_TRUE(b.save());

    StoreIndex merged(dir);
    EXPECT_NE(merged.find("from_a"), nullptr);
    EXPECT_NE(merged.find("from_b"), nullptr);
    EXPECT_EQ(merged.generation(), 2u);

    // b adopted the merged image at save(): a's entry is visible
    // there too, without a reload.
    EXPECT_NE(b.find("from_a"), nullptr);
}

TEST(StoreIndex, ErasePropagatesThroughTheMerge)
{
    const std::string dir = freshDir("index_erase");
    {
        StoreIndex seed(dir);
        seed.put("victim", namedEntry("v"));
        seed.put("keep", namedEntry("k"));
        ASSERT_TRUE(seed.save());
    }
    // One instance erases while another flushes an unrelated put:
    // the erase must not resurrect through the other's merge.
    StoreIndex eraser(dir);
    StoreIndex writer(dir);
    EXPECT_TRUE(eraser.erase("victim"));
    ASSERT_TRUE(eraser.save());
    writer.put("new", namedEntry("n"));
    ASSERT_TRUE(writer.save());

    StoreIndex merged(dir);
    EXPECT_EQ(merged.find("victim"), nullptr);
    EXPECT_NE(merged.find("keep"), nullptr);
    EXPECT_NE(merged.find("new"), nullptr);
    EXPECT_EQ(merged.generation(), 3u);
}

TEST(StoreIndex, ConcurrentStoreFlushesNeverLoseEntries)
{
    const std::string dir = freshDir("index_concurrent");
    const auto sim = simulateSmall("gcc");
    // Two ProfileStore instances (two daemons sharding one cache —
    // flock excludes between fds even inside one process) save and
    // gc concurrently. Every save must survive, and the generation
    // counter must count every flush exactly once.
    constexpr int kPerWriter = 6;
    const ProfileStore store_a(dir);
    const ProfileStore store_b(dir);
    std::thread writer_a([&] {
        for (int i = 0; i < kPerWriter; ++i)
            store_a.save(std::string("a") + std::to_string(i), sim);
    });
    std::thread writer_b([&] {
        for (int i = 0; i < kPerWriter; ++i) {
            store_b.save(std::string("b") + std::to_string(i), sim);
            // Age-based gc with no limit set evicts nothing but
            // still walks (and flushes) the shared index.
            ProfileStore::GcOptions options;
            store_b.gc(options);
        }
    });
    writer_a.join();
    writer_b.join();

    const StoreIndex merged(dir);
    for (int i = 0; i < kPerWriter; ++i) {
        EXPECT_NE(merged.find(std::string("a") + std::to_string(i)),
                  nullptr)
            << "a" << i;
        EXPECT_NE(merged.find(std::string("b") + std::to_string(i)),
                  nullptr)
            << "b" << i;
    }
    EXPECT_GE(merged.generation(),
              static_cast<std::uint64_t>(2 * kPerWriter));
    const ProfileStore verify(dir);
    EXPECT_EQ(verify.summaries().size(),
              static_cast<std::size_t>(2 * kPerWriter));
}

TEST(Exports, ExportImportRoundTripsThroughAFile)
{
    const std::string dir = freshDir("export");
    const auto sim = simulateSmall("gcc");
    const std::string path = dir + "/gcc.lsimprof";
    exportSim(path, "gcc-somekey", sim);

    const auto imported = importSimFile(path);
    EXPECT_EQ(imported.key, "gcc-somekey");
    expectBitExact(sim, imported.sim);

    // importAnySim sniffs the binary format too.
    const auto any = importAnySim(path);
    expectBitExact(sim, any.sim);
}

} // namespace
