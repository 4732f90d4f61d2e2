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
#include <vector>

#include "api/batch.hh"
#include "api/experiment.hh"
#include "api/sweep.hh"
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

/** Backdate @p key's entry file by @p hours: its mtime is the age
 * gc() reads. */
void
backdate(const std::string &dir, const std::string &key, int hours)
{
    fs::last_write_time(fs::path(dir) /
                            (key + ProfileStore::kExtension),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(hours));
}

TEST(ProfileStore, GcEvictsByAge)
{
    const std::string dir = freshDir("gc_age");
    const auto sim = simulateSmall("gcc");
    {
        const ProfileStore db(dir);
        db.save("old", sim);
        db.save("fresh", sim);
    }
    backdate(dir, "old", 48);

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

TEST(ProfileStore, GcEvictsLeastRecentlyUsedFirstUntilUnderBudget)
{
    const std::string dir = freshDir("gc_bytes");
    const auto sim = simulateSmall("gcc");
    {
        const ProfileStore db(dir);
        for (const char *key : {"a", "b", "c"})
            db.save(key, sim);
    }
    // Distinct ages, coldest first: a, then b, then c.
    backdate(dir, "a", 3);
    backdate(dir, "b", 2);
    backdate(dir, "c", 1);
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
    backdate(dir, "hot", 48);
    backdate(dir, "cold", 48);

    // ...but a load touches "hot", so only "cold" ages out. The
    // touch is on disk when load() returns: a second instance (a
    // peer daemon, `lsim profile gc`) sees it while the loading
    // instance is still alive, so a loader killed at this point
    // would not lose it either.
    const ProfileStore db(dir);
    ASSERT_TRUE(db.load("hot").has_value());
    const ProfileStore peer(dir);
    ProfileStore::GcOptions options;
    options.max_age_seconds = 24.0 * 3600.0;
    const auto stats = peer.gc(options);
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

/** Where a corruption lands: the middle of the payload (caught by
 * the checksum), or the top byte of the little-endian payload-size
 * field at offset 20 (outside the checksum: a size far past the end
 * of the file). */
struct Corruption
{
    const char *what;
    bool mid_payload;
    std::streamoff offset;
    char byte;
};

constexpr Corruption kCorruptions[] = {
    {"mid-payload byte", true, 0, '\xff'},
    {"payload-size top byte", false, 27, '\x01'},
};

void
corrupt(const std::string &path, const Corruption &c)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(c.mid_payload ? size / 2 : c.offset);
    f.put(c.byte);
}

TEST(ProfileStore, CorruptedEntryIsRejected)
{
    const std::string dir = freshDir("corrupt");
    const ProfileStore db(dir);
    const auto sim = simulateSmall("mst");
    const std::string path =
        dir + "/entry" + std::string(ProfileStore::kExtension);
    for (const Corruption &c : kCorruptions) {
        db.save("entry", sim);
        corrupt(path, c);
        EXPECT_FALSE(db.load("entry").has_value()) << c.what;
        EXPECT_THROW((void)importSimFile(
                         fs::path(dir) / ProfileStore::kQuarantineDir /
                         ("entry" + std::string(ProfileStore::kExtension))),
                     StoreError)
            << c.what;
    }
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

std::vector<std::string>
listedKeys(const ProfileStore &db)
{
    std::vector<std::string> keys;
    for (const StoreEntry &entry : db.list())
        keys.push_back(entry.key);
    return keys;
}

TEST(ProfileStore, ListShowsExactlyTheEntryFiles)
{
    const std::string dir = freshDir("list_files");
    const auto sim = simulateSmall("gcc");
    const ProfileStore db(dir);
    db.save("two", sim);
    db.save("one", sim);
    // Nothing but `*.lsimprof` files is an entry: not a stray file,
    // a temp file, or the quarantine directory.
    std::ofstream(fs::path(dir) / "notes.txt") << "not an entry";
    std::ofstream(fs::path(dir) / "one.lsimprof.tmp.1.0") << "torn";
    fs::create_directories(fs::path(dir) /
                           ProfileStore::kQuarantineDir);

    const auto entries = db.list();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].key, "one");
    EXPECT_EQ(entries[1].key, "two");
    expectBitExact(sim, entries[0].sim);
}

TEST(ProfileStore, ListShowsAnotherInstancesSave)
{
    const std::string dir = freshDir("list_peer");
    const auto sim = simulateSmall("gcc");
    const ProfileStore db(dir);
    db.save("mine", sim);
    const ProfileStore peer(dir);
    peer.save("theirs", sim);
    EXPECT_EQ(listedKeys(db),
              (std::vector<std::string>{"mine", "theirs"}));
}

TEST(ProfileStore, ListLeavesOutAFileDeletedBehindItsBack)
{
    const std::string dir = freshDir("list_deleted");
    const auto sim = simulateSmall("gcc");
    const ProfileStore db(dir);
    db.save("keep", sim);
    db.save("gone", sim);
    // Another process's rm or gc.
    fs::remove(fs::path(dir) / "gone.lsimprof");
    EXPECT_EQ(listedKeys(db), (std::vector<std::string>{"keep"}));
}

TEST(ProfileStore, ConcurrentSavesFromTwoInstancesLoseNothing)
{
    const std::string dir = freshDir("concurrent_instances");
    const auto sim = simulateSmall("gcc");
    // Two instances (two daemons sharding one cache) save and gc at
    // once. They share only the entry files, so every save lands.
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
            // A gc with no limit set evicts nothing but still walks
            // the directory the other writer is renaming into.
            store_b.gc({});
        }
    });
    writer_a.join();
    writer_b.join();

    const ProfileStore verify(dir);
    const auto keys = listedKeys(verify);
    EXPECT_EQ(keys.size(), static_cast<std::size_t>(2 * kPerWriter));
    for (int i = 0; i < kPerWriter; ++i) {
        for (const char *writer : {"a", "b"}) {
            const std::string key = writer + std::to_string(i);
            EXPECT_TRUE(verify.load(key).has_value()) << key;
        }
    }
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

TEST(Exports, AnEmbeddedKeyOutsideTheStoreIsRefused)
{
    const std::string dir = freshDir("escape_import");
    const auto sim = simulateSmall("gcc");
    const std::string path = dir + "/crafted.lsimprof";
    // A store key becomes <cache-dir>/<key>.lsimprof, so an import
    // must never carry one that leaves the cache directory.
    for (const char *key : {"../escaped", "a/b", ".", ".."}) {
        exportSim(path, key, sim);
        EXPECT_THROW((void)importSimFile(path), StoreError) << key;
        EXPECT_THROW((void)importAnySim(path), StoreError) << key;
    }
    // No key at all is an export of a JSON import: still readable.
    exportSim(path, "", sim);
    EXPECT_EQ(importSimFile(path).key, "");
}

TEST(ProfileStore, RemoveRefusesAKeyOutsideTheStore)
{
    const std::string dir = freshDir("escape_rm");
    const std::string outside = dir + "/escaped.lsimprof";
    std::ofstream(outside) << "not the store's to delete";
    const ProfileStore db(dir + "/cache");
    for (const char *key : {"../escaped", "a/b", "", ".", ".."})
        EXPECT_THROW((void)db.remove(key), StoreError) << key;
    EXPECT_TRUE(fs::exists(outside));
}

} // namespace
