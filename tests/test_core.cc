/**
 * @file
 * Unit and integration tests for the out-of-order core timing model.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace
{

using lsim::Cycle;
using lsim::cpu::CoreConfig;
using lsim::cpu::O3Core;
using lsim::trace::TraceGenerator;
using lsim::trace::WorkloadProfile;
using lsim::trace::profileByName;

WorkloadProfile
testProfile()
{
    WorkloadProfile p;
    p.name = "core-test";
    p.suite = "test";
    p.num_blocks = 64;
    return p;
}

TEST(Core, CommitsExactlyRequestedInstructions)
{
    TraceGenerator gen(testProfile(), 1);
    O3Core core(CoreConfig{}, gen);
    const auto res = core.run(10000);
    EXPECT_GE(res.committed, 10000u);
    EXPECT_LE(res.committed, 10000u + 3u); // commit-width slop
    EXPECT_GT(res.cycles, 0u);
}

TEST(Core, IpcBoundedByMachineWidth)
{
    TraceGenerator gen(testProfile(), 1);
    O3Core core(CoreConfig{}, gen);
    const auto res = core.run(20000);
    EXPECT_GT(res.ipc, 0.05);
    EXPECT_LE(res.ipc, 4.0);
}

TEST(Core, FuUtilizationConsistentWithIpc)
{
    // Integer busy cycles cannot exceed committed integer ops and
    // must be a plausible share of them.
    TraceGenerator gen(testProfile(), 2);
    O3Core core(CoreConfig{}, gen);
    const auto res = core.run(20000);
    double busy = 0.0;
    for (unsigned fu = 0; fu < core.fuPool().numUnits(); ++fu)
        busy += static_cast<double>(core.fuPool().busyCycles(fu));
    // Every committed int-class op occupied an FU exactly once; some
    // in-flight remainder is tolerated.
    EXPECT_GT(busy, 0.5 * static_cast<double>(res.committed));
    EXPECT_LT(busy, 1.05 * static_cast<double>(res.committed));
}

TEST(Core, MoreFusNeverHurtNorExceedWidth)
{
    double prev_ipc = 0.0;
    for (unsigned fus : {1u, 2u, 4u}) {
        TraceGenerator gen(testProfile(), 3);
        O3Core core(CoreConfig{}.withIntFus(fus), gen);
        const auto res = core.run(20000);
        EXPECT_GE(res.ipc, prev_ipc * 0.98) << fus << " FUs";
        prev_ipc = res.ipc;
    }
}

TEST(Core, StatsArePopulated)
{
    TraceGenerator gen(testProfile(), 4);
    O3Core core(CoreConfig{}, gen);
    const auto res = core.run(20000);
    EXPECT_GT(res.bpred.lookups, 0u);
    EXPECT_GT(res.bpred.cond_branches, 0u);
    EXPECT_GT(res.l1i.accesses, 0u);
    EXPECT_GT(res.l1d.accesses, 0u);
    EXPECT_EQ(res.fu_utilization.size(), 4u);
    EXPECT_GT(res.mean_fu_idle_fraction, 0.0);
    EXPECT_LT(res.mean_fu_idle_fraction, 1.0);
}

TEST(Core, RunSinkSeesEveryCycle)
{
    TraceGenerator gen(testProfile(), 5);
    O3Core core(CoreConfig{}.withIntFus(2), gen);
    Cycle total[2] = {0, 0};
    core.setFuRunSink([&](unsigned fu, bool, Cycle len) {
        total[fu] += len;
    });
    const auto res = core.run(5000);
    EXPECT_EQ(total[0], res.cycles);
    EXPECT_EQ(total[1], res.cycles);
}

TEST(Core, SlowerL2LengthensExecution)
{
    TraceGenerator gen_a(profileByName("mcf"), 1);
    O3Core fast(CoreConfig{}.withIntFus(2), gen_a);
    const auto res_fast = fast.run(30000);

    TraceGenerator gen_b(profileByName("mcf"), 1);
    O3Core slow(
        CoreConfig{}.withIntFus(2).withL2Latency(32), gen_b);
    const auto res_slow = slow.run(30000);

    EXPECT_GT(res_slow.cycles, res_fast.cycles);
}

TEST(Core, DeadlockFreeAcrossAllProfiles)
{
    for (const auto &p : lsim::trace::table3Profiles()) {
        TraceGenerator gen(p, 1);
        O3Core core(CoreConfig{}.withIntFus(p.paper_fus), gen);
        const auto res = core.run(20000);
        EXPECT_GT(res.ipc, 0.0) << p.name;
    }
}

TEST(Core, MemoryBoundRanksBelowIlpRich)
{
    auto ipc_of = [](const char *name) {
        TraceGenerator gen(profileByName(name), 1);
        O3Core core(CoreConfig{}, gen);
        return core.run(150000).ipc;
    };
    const double mcf = ipc_of("mcf");
    const double vortex = ipc_of("vortex");
    EXPECT_LT(mcf, 0.5 * vortex);
}

TEST(Core, DeterministicAcrossRuns)
{
    auto run_once = [] {
        TraceGenerator gen(testProfile(), 42);
        O3Core core(CoreConfig{}, gen);
        return core.run(20000);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.bpred.dir_mispredicts, b.bpred.dir_mispredicts);
    EXPECT_EQ(a.l1d.misses, b.l1d.misses);
}

TEST(Core, LargeCodeFootprintPressuresIcache)
{
    // gcc's static footprint (~220 KB) exceeds the 64 KB L1I;
    // gzip's hot loops fit. The simulator must show the difference.
    auto l1i_rate = [](const char *name) {
        TraceGenerator gen(profileByName(name), 1);
        O3Core core(CoreConfig{}, gen);
        return core.run(150000).l1i.missRate();
    };
    EXPECT_GT(l1i_rate("gcc"), 1.8 * l1i_rate("gzip"));
}

TEST(Core, BusyCyclesEqualIssuedIntOps)
{
    // Fully pipelined FUs: every integer-class instruction occupies
    // exactly one FU-cycle, so summed busy cycles track committed
    // integer ops to within the in-flight remainder at the end.
    TraceGenerator gen(testProfile(), 9);
    O3Core core(CoreConfig{}, gen);
    const auto res = core.run(30000);
    Cycle busy = 0;
    for (unsigned fu = 0; fu < core.fuPool().numUnits(); ++fu)
        busy += core.fuPool().busyCycles(fu);
    // The test profile has no FP ops, so every committed op is an
    // integer op; allow ROB-depth slop for in-flight work.
    EXPECT_GE(busy + 1, res.committed);
    EXPECT_LE(busy, res.committed + core.config().rob_entries);
}

TEST(CoreDeath, RunTwicePanics)
{
    TraceGenerator gen(testProfile(), 6);
    O3Core core(CoreConfig{}, gen);
    core.run(100);
    EXPECT_DEATH(core.run(100), "once");
}

TEST(CoreDeath, SinkAfterRunPanics)
{
    TraceGenerator gen(testProfile(), 7);
    O3Core core(CoreConfig{}, gen);
    core.run(100);
    EXPECT_DEATH(core.setFuRunSink([](unsigned, bool, Cycle) {}),
                 "after run");
}

TEST(CoreDeath, WatchdogFiresAcrossASkippedStall)
{
    // The first instruction fetch misses to a 300k-cycle memory, so
    // nothing commits for longer than the 200k-cycle deadlock window.
    // Event skipping jumps over the stall and must stop where the
    // watchdog fires, reporting the same cycle as stepping would.
    CoreConfig slow;
    slow.mem.memory_latency = 300000;
    TraceGenerator gen(testProfile(), 10);
    O3Core core(slow, gen);
    EXPECT_DEATH(core.run(100),
                 "no commit for 200000 cycles at cycle 200001 "
                 "\\(rob=0 iq=0 fq=0\\)");
}

TEST(Core, SkippedCyclesAreCountedAndIdle)
{
    // mcf waits on memory most of the time: a large share of its
    // cycles is skipped, and the skipped cycles are FU-idle cycles
    // inside the run's total.
    TraceGenerator gen(profileByName("mcf"), 1);
    O3Core core(CoreConfig{}.withIntFus(2), gen);
    Cycle total[2] = {0, 0};
    core.setFuRunSink([&](unsigned fu, bool, Cycle len) {
        total[fu] += len;
    });
    const auto res = core.run(20000);
    EXPECT_GT(core.cyclesSkipped(), res.cycles / 4);
    EXPECT_LT(core.cyclesSkipped(), res.cycles);
    EXPECT_EQ(total[0], res.cycles);
    EXPECT_EQ(total[1], res.cycles);
}

TEST(Core, ConfigValidation)
{
    TraceGenerator gen(testProfile(), 8);
    // The configuration is validated before any member is built, so
    // CoreConfig's message wins over the members' own checks.
    const auto message = [&](const CoreConfig &config) {
        try {
            O3Core core(config, gen);
        } catch (const std::invalid_argument &err) {
            return std::string(err.what());
        }
        return std::string("no exception");
    };
    CoreConfig bad;
    bad.num_int_fus = 0;
    EXPECT_EQ(message(bad), "CoreConfig: integer FU count 0 outside [1,8]");
    bad.num_int_fus = 9;
    EXPECT_EQ(message(bad), "CoreConfig: integer FU count 9 outside [1,8]");
    CoreConfig bad2;
    bad2.int_phys_regs = 16;
    EXPECT_EQ(message(bad2),
              "CoreConfig: need at least 32 physical registers per "
              "file (architectural state)");
    CoreConfig bad3;
    bad3.rob_entries = 0;
    EXPECT_EQ(message(bad3), "CoreConfig: zero queue capacity");
}

TEST(Core, ConfigValidateThrowsForEveryBadParameter)
{
    const auto expectRejected = [](auto mutate) {
        CoreConfig config;
        mutate(config);
        EXPECT_THROW(config.validate(), std::invalid_argument);
    };
    EXPECT_NO_THROW(CoreConfig{}.validate());
    expectRejected([](CoreConfig &c) { c.fetch_width = 0; });
    expectRejected([](CoreConfig &c) { c.commit_width = 0; });
    expectRejected([](CoreConfig &c) { c.fetch_queue_entries = 0; });
    expectRejected([](CoreConfig &c) { c.fp_iq_entries = 0; });
    expectRejected([](CoreConfig &c) { c.fp_phys_regs = 31; });
    expectRejected([](CoreConfig &c) { c.num_int_fus = 9; });
    expectRejected([](CoreConfig &c) { c.num_fp_fus = 0; });
    expectRejected([](CoreConfig &c) { c.dcache_ports = 0; });
    expectRejected([](CoreConfig &c) { c.bpred.bimodal_entries = 0; });
    expectRejected([](CoreConfig &c) { c.bpred.gshare_entries = 3000; });
    expectRejected([](CoreConfig &c) { c.bpred.chooser_entries = 6; });
    expectRejected([](CoreConfig &c) { c.bpred.btb_sets = 100; });
    expectRejected([](CoreConfig &c) { c.bpred.hist_bits = 0; });
    expectRejected([](CoreConfig &c) { c.bpred.hist_bits = 21; });
    expectRejected([](CoreConfig &c) { c.bpred.ras_entries = 0; });
    expectRejected([](CoreConfig &c) { c.bpred.btb_assoc = 0; });
}

/** IPC responds sensibly across FU counts for every benchmark. */
class CoreFuSweepTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CoreFuSweepTest, IpcMonotoneInFus)
{
    const auto &p = profileByName(GetParam());
    double prev = 0.0;
    for (unsigned fus = 1; fus <= 4; ++fus) {
        TraceGenerator gen(p, 1);
        O3Core core(CoreConfig{}.withIntFus(fus), gen);
        const double ipc = core.run(30000).ipc;
        EXPECT_GE(ipc, prev * 0.97)
            << GetParam() << " at " << fus << " FUs";
        prev = ipc;
    }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, CoreFuSweepTest,
                         ::testing::Values("gzip", "mcf", "vortex"));

} // namespace
