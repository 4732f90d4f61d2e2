/**
 * @file
 * Unit tests for the fault-injection layer (common/fault.hh) and the
 * failure-domain hardening it drives: trigger grammar, deterministic
 * schedules, the file fault point, store write retries, graceful
 * degradation, and corruption quarantine.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "api/experiment.hh"
#include "common/fault.hh"
#include "common/files.hh"
#include "obs/metrics.hh"
#include "store/profile_store.hh"

namespace
{

namespace fs = std::filesystem;
using namespace lsim;
using store::ProfileStore;

/** Fresh per-test directory under gtest's temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lsim_fault_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

harness::WorkloadSim
simulateSmall()
{
    return api::Experiment::builder()
        .workload("mst")
        .insts(20000)
        .session()
        .sim();
}

/** Every test starts and ends disarmed; the registry is process-
 * global, so a leaked trigger would poison unrelated tests. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

// ------------------------------------------------------ grammar

TEST_F(FaultTest, DisarmedByDefault)
{
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(LSIM_FAULT("store.write"));
    // Disarmed sites record nothing — the fast path never reaches
    // the registry.
    EXPECT_EQ(fault::hits("store.write"), 0u);
}

TEST_F(FaultTest, ConfigureArmsAndResetDisarms)
{
    fault::configure("store.write");
    EXPECT_TRUE(fault::armed());
    fault::reset();
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(LSIM_FAULT("store.write"));
}

TEST_F(FaultTest, EmptySpecIsANoOp)
{
    fault::configure("");
    fault::configure("  \t\n ");
    EXPECT_FALSE(fault::armed());
}

TEST_F(FaultTest, BadSpecsThrow)
{
    EXPECT_THROW(fault::configure("Bad.Point"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("p:after"), std::invalid_argument);
    EXPECT_THROW(fault::configure("p:after=x"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("p:count=0"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("p:every=0"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("p:prob=0"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("p:prob=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("p:bogus=1"),
                 std::invalid_argument);
    // A throwing configure installs nothing.
    EXPECT_FALSE(fault::armed());
}

TEST_F(FaultTest, AfterSkipsLeadingHits)
{
    fault::configure("p:after=3");
    int fired = 0;
    for (int i = 0; i < 6; ++i)
        fired += LSIM_FAULT("p") ? 1 : 0;
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(fault::hits("p"), 6u);
    EXPECT_EQ(fault::fired("p"), 3u);
}

TEST_F(FaultTest, CountBoundsFirings)
{
    fault::configure("p:count=2");
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        fired += LSIM_FAULT("p") ? 1 : 0;
    EXPECT_EQ(fired, 2);
}

TEST_F(FaultTest, EveryFiresPeriodically)
{
    fault::configure("p:every=3");
    std::string pattern;
    for (int i = 0; i < 9; ++i)
        pattern += LSIM_FAULT("p") ? 'F' : '.';
    EXPECT_EQ(pattern, "..F..F..F");
}

TEST_F(FaultTest, ProbScheduleIsSeedDeterministic)
{
    const auto schedule = [](unsigned seed) {
        fault::reset();
        fault::configure("p:prob=0.5:seed=" +
                         std::to_string(seed));
        std::string s;
        for (int i = 0; i < 64; ++i)
            s += LSIM_FAULT("p") ? 'F' : '.';
        return s;
    };
    const std::string a = schedule(7);
    const std::string b = schedule(7);
    EXPECT_EQ(a, b); // same seed, same schedule
    EXPECT_NE(a, std::string(64, '.'));
    EXPECT_NE(a, std::string(64, 'F'));
    EXPECT_NE(a, schedule(8)); // different seed, different schedule
}

TEST_F(FaultTest, ErrnoIsSurfaced)
{
    fault::configure("p:error=ENOSPC, q:error=71");
    int err = 0;
    EXPECT_TRUE(LSIM_FAULT_ERRNO("p", &err));
    EXPECT_EQ(err, ENOSPC);
    EXPECT_TRUE(LSIM_FAULT_ERRNO("q", &err));
    EXPECT_EQ(err, 71);
}

TEST_F(FaultTest, PointsAreIndependent)
{
    fault::configure("p");
    EXPECT_TRUE(LSIM_FAULT("p"));
    EXPECT_FALSE(LSIM_FAULT("unrelated"));
    // Armed sites record hits even without a trigger of their own,
    // so chaos runs can see which domains were exercised.
    EXPECT_EQ(fault::hits("unrelated"), 1u);
    EXPECT_EQ(fault::fired("unrelated"), 0u);
}

// ---------------------------------------------- file fault point

TEST_F(FaultTest, AtomicWriteFileFault)
{
    const std::string dir = freshDir("write");
    fault::configure("file.write:count=1");
    EXPECT_FALSE(atomicWriteFile(dir + "/f", "data"));
    EXPECT_FALSE(fs::exists(dir + "/f"));
    // The trigger is spent: the next write goes through.
    EXPECT_TRUE(atomicWriteFile(dir + "/f", "data"));
    EXPECT_TRUE(fs::exists(dir + "/f"));
}

// --------------------------------------- store write hardening

TEST_F(FaultTest, SaveRetriesTransientWriteFault)
{
    const std::string dir = freshDir("save_retry");
    const ProfileStore db(dir);
    const auto retries_before =
        obs::counter("store.retries").value();

    fault::configure("store.write:count=1");
    db.save("entry", simulateSmall());

    EXPECT_FALSE(db.degraded());
    EXPECT_TRUE(db.load("entry").has_value());
    EXPECT_GE(obs::counter("store.retries").value(),
              retries_before + 1);
}

TEST_F(FaultTest, PersistentWriteFaultDegradesStore)
{
    const std::string dir = freshDir("degraded");
    const ProfileStore db(dir);

    fault::configure("store.write");
    db.save("entry", simulateSmall());

    EXPECT_TRUE(db.degraded());
    EXPECT_EQ(obs::gauge("store.degraded").value(), 1);
    EXPECT_FALSE(db.load("entry").has_value());

    // Degraded is sticky: even with the fault gone, this instance
    // stays compute-without-cache (no half-alive flapping).
    fault::reset();
    db.save("entry2", simulateSmall());
    EXPECT_FALSE(db.load("entry2").has_value());

    // A fresh instance over the same directory starts healthy.
    const ProfileStore fresh(dir);
    EXPECT_FALSE(fresh.degraded());
    fresh.save("entry3", simulateSmall());
    EXPECT_TRUE(fresh.load("entry3").has_value());
}

// --------------------------------------------------- quarantine

TEST_F(FaultTest, CorruptEntryIsQuarantinedOnce)
{
    // Two corruptions: one byte flipped mid-payload (the checksum
    // fails), and the top byte of the little-endian payload-size
    // field at offset 20 set (a size far past the end of the file;
    // the field is outside the checksum).
    const struct
    {
        const char *what;
        bool mid_payload;
        std::streamoff offset;
        char byte;
    } corruptions[] = {
        {"mid-payload byte", true, 0, '\xff'},
        {"payload-size top byte", false, 27, '\x01'},
    };
    const std::string dir = freshDir("quarantine");
    const ProfileStore db(dir);
    const auto sim = simulateSmall();
    const std::string path =
        dir + "/entry" + std::string(ProfileStore::kExtension);
    for (const auto &c : corruptions) {
        SCOPED_TRACE(c.what);
        db.save("entry", sim);
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            ASSERT_TRUE(f.is_open());
            f.seekg(0, std::ios::end);
            const auto size = static_cast<std::streamoff>(f.tellg());
            f.seekp(c.mid_payload ? size / 2 : c.offset);
            f.put(c.byte);
        }

        const auto quarantined_before =
            obs::counter("store.quarantined").value();
        EXPECT_FALSE(db.load("entry").has_value());

        // The corrupt file moved to <dir>/quarantine/ instead of
        // being warned about forever.
        EXPECT_FALSE(fs::exists(path));
        EXPECT_TRUE(fs::exists(fs::path(dir) /
                               ProfileStore::kQuarantineDir /
                               ("entry" +
                                std::string(ProfileStore::kExtension))));
        EXPECT_EQ(obs::counter("store.quarantined").value(),
                  quarantined_before + 1);

        // The second load is a plain miss — no second quarantine.
        EXPECT_FALSE(db.load("entry").has_value());
        EXPECT_EQ(obs::counter("store.quarantined").value(),
                  quarantined_before + 1);

        // The slot is reusable: a fresh save round-trips.
        db.save("entry", sim);
        EXPECT_TRUE(db.load("entry").has_value());
    }
}

TEST_F(FaultTest, InjectedReadFaultQuarantines)
{
    const std::string dir = freshDir("read_fault");
    const ProfileStore db(dir);
    db.save("entry", simulateSmall());

    fault::configure("store.read:count=1");
    EXPECT_FALSE(db.load("entry").has_value());
    EXPECT_TRUE(fs::exists(fs::path(dir) /
                           ProfileStore::kQuarantineDir /
                           ("entry" +
                            std::string(ProfileStore::kExtension))));
}

TEST_F(FaultTest, ExportFaultThrowsStoreError)
{
    const std::string dir = freshDir("export");
    const auto sim = simulateSmall();
    fault::configure("store.export");
    EXPECT_THROW(
        store::exportSim(dir + "/out.lsimprof", "key", sim),
        store::StoreError);
}

} // namespace
