/**
 * @file
 * Unit tests for the experiment harness (IdleProfile capture and
 * policy evaluation over stored interval statistics).
 */

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "harness/experiment.hh"
#include "obs/metrics.hh"
#include "trace/profile.hh"

namespace
{

using lsim::Cycle;
using lsim::api::evaluateProfile;
using lsim::energy::ModelParams;
using lsim::harness::IdleProfile;
using lsim::harness::selectFuCount;
using lsim::harness::simulateWorkload;
using lsim::sleep::PolicyEvaluator;
using lsim::trace::WorkloadProfile;
using lsim::trace::profileByName;

ModelParams
params(double p = 0.05)
{
    ModelParams mp;
    mp.p = p;
    mp.k = 0.001;
    mp.s = 0.01;
    mp.alpha = 0.5;
    return mp;
}

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "harness-test";
    p.suite = "test";
    p.num_blocks = 64;
    return p;
}

TEST(IdleProfile, AccumulatesRuns)
{
    IdleProfile ip;
    ip.addRun(true, 10);
    ip.addRun(false, 5);
    ip.addRun(true, 3);
    ip.addRun(false, 5);
    ip.addRun(false, 7);
    EXPECT_EQ(ip.active_cycles, 13u);
    EXPECT_EQ(ip.idle_cycles, 17u);
    EXPECT_EQ(ip.numIntervals(), 3u);
    EXPECT_EQ(ip.intervals.at(5), 2u);
    EXPECT_NEAR(ip.meanInterval(), 17.0 / 3.0, 1e-12);
    EXPECT_NEAR(ip.idleFraction(), 17.0 / 30.0, 1e-12);
}

TEST(IdleProfile, ReplayMatchesDirectFeeding)
{
    // Evaluating from the stored interval multiset must equal
    // feeding the original run sequence (controllers are
    // history-free).
    IdleProfile ip;
    auto direct = PolicyEvaluator::paperPolicies(params());
    const struct
    {
        bool busy;
        Cycle len;
    } runs[] = {{true, 4}, {false, 10}, {true, 2}, {false, 3},
                {true, 7}, {false, 10}, {true, 1}, {false, 50}};
    for (const auto &r : runs) {
        ip.addRun(r.busy, r.len);
        direct.feedRun(r.busy, r.len);
    }
    const auto via_profile = evaluateProfile(ip, params());
    const auto via_direct = direct.results();
    ASSERT_EQ(via_profile.size(), via_direct.size());
    for (std::size_t i = 0; i < via_profile.size(); ++i) {
        EXPECT_EQ(via_profile[i].name, via_direct[i].name);
        EXPECT_NEAR(via_profile[i].energy, via_direct[i].energy,
                    1e-9);
        EXPECT_NEAR(via_profile[i].relative_to_base,
                    via_direct[i].relative_to_base, 1e-12);
    }
}

TEST(Harness, SimulateWorkloadConsistency)
{
    const auto ws = simulateWorkload(tinyProfile(), 2, 20000);
    EXPECT_EQ(ws.num_fus, 2u);
    EXPECT_EQ(ws.idle.num_fus, 2u);
    // The idle profile aggregates both FUs over all cycles.
    EXPECT_EQ(ws.idle.totalCycles(), 2 * ws.sim.cycles);
    EXPECT_NEAR(ws.idle.idleFraction(),
                ws.sim.mean_fu_idle_fraction, 0.01);
    // The Figure 7 histogram totals the benchmark's mean idle
    // fraction (per-FU fractions averaged over the unit count).
    EXPECT_NEAR(ws.idle_hist.totalWeight(),
                ws.sim.mean_fu_idle_fraction, 0.01);
}

TEST(Harness, SimulationsCountCyclesAndSkippedCycles)
{
    const auto value = [](const char *name) {
        return lsim::obs::counter(name).value();
    };
    const std::uint64_t cycles = value("sim.cycles");
    const std::uint64_t skipped = value("sim.cycles_skipped");
    const auto ws = simulateWorkload(profileByName("mcf"), 2, 20000);
    const std::uint64_t run_cycles = value("sim.cycles") - cycles;
    const std::uint64_t run_skipped =
        value("sim.cycles_skipped") - skipped;
    EXPECT_EQ(run_cycles, ws.sim.cycles);
    // mcf waits on memory: many of its cycles change no state.
    EXPECT_GT(run_skipped, 0u);
    EXPECT_LT(run_skipped, run_cycles);

    // Selection runs count too: the same trace at 1-4 FUs, so the
    // 2-FU run again, a slower 1-FU run and two more.
    (void)selectFuCount(profileByName("mcf"), 20000);
    EXPECT_GT(value("sim.cycles") - cycles, 3 * run_cycles);
    EXPECT_GT(value("sim.cycles_skipped") - skipped, 2 * run_skipped);
}

TEST(Harness, SelectFuCountReasonable)
{
    const auto sel = selectFuCount(tinyProfile(), 20000);
    EXPECT_GE(sel.chosen, 1u);
    EXPECT_LE(sel.chosen, 4u);
    EXPECT_GE(sel.chosen_ipc, 0.95 * sel.max_ipc);
    // IPC at the chosen count must match the sweep entry.
    EXPECT_DOUBLE_EQ(sel.chosen_ipc, sel.ipc_by_fus[sel.chosen - 1]);
}

TEST(Harness, SelectFuCountPrefersFewerForSerialWorkloads)
{
    // mcf (memory bound) needs fewer FUs than vortex (ILP rich).
    const auto mcf = selectFuCount(profileByName("mcf"), 30000);
    const auto vortex = selectFuCount(profileByName("vortex"), 30000);
    EXPECT_LE(mcf.chosen, vortex.chosen);
}

TEST(Harness, PolicyResultsOrderedAsPaper)
{
    IdleProfile ip;
    ip.addRun(true, 100);
    ip.addRun(false, 30);
    const auto results = evaluateProfile(ip, params());
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].name, "MaxSleep");
    EXPECT_EQ(results[1].name, "GradualSleep");
    EXPECT_EQ(results[2].name, "AlwaysActive");
    EXPECT_EQ(results[3].name, "NoOverhead");
}

} // namespace
