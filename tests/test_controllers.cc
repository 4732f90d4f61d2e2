/**
 * @file
 * Unit and property tests for the cycle-level sleep controllers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "energy/breakeven.hh"
#include "energy/gradual_sleep_model.hh"
#include "sleep/controllers.hh"
#include "sleep/policy_registry.hh"

namespace
{

/**
 * These sites formerly fatal()ed out of the process; the library now
 * throws std::invalid_argument (caught at the CLI boundary), so the
 * tests assert on the exception and its message, not a process exit.
 */
template <typename Fn>
void
expectRejects(Fn &&fn, const std::string &substr)
{
    try {
        fn();
        ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(std::string(e.what()).find(substr) !=
                    std::string::npos)
            << "unexpected message: " << e.what();
    }
}

using lsim::Cycle;
using lsim::energy::EnergyModel;
using lsim::energy::ModelParams;
using lsim::sleep::AdaptiveController;
using lsim::sleep::AlwaysActiveController;
using lsim::sleep::GradualSleepController;
using lsim::sleep::MaxSleepController;
using lsim::sleep::NoOverheadController;
using lsim::sleep::OracleController;
using lsim::sleep::SleepController;
using lsim::sleep::TimeoutController;
using lsim::sleep::WeightedGradualSleepController;
using lsim::sleep::PolicyRegistry;

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

TEST(AlwaysActive, AllIdleIsUncontrolled)
{
    AlwaysActiveController c;
    c.activeRun(10);
    c.idleRun(7);
    c.idleRun(3);
    EXPECT_DOUBLE_EQ(c.counts().active, 10.0);
    EXPECT_DOUBLE_EQ(c.counts().unctrl_idle, 10.0);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 0.0);
    EXPECT_DOUBLE_EQ(c.counts().transitions, 0.0);
}

TEST(MaxSleep, OneTransitionPerInterval)
{
    MaxSleepController c;
    c.activeRun(5);
    c.idleRun(7);
    c.activeRun(1);
    c.idleRun(2);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 9.0);
    EXPECT_DOUBLE_EQ(c.counts().transitions, 2.0);
    EXPECT_DOUBLE_EQ(c.counts().unctrl_idle, 0.0);
}

TEST(NoOverhead, SleepWithoutTransitions)
{
    NoOverheadController c;
    c.idleRun(7);
    c.idleRun(2);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 9.0);
    EXPECT_DOUBLE_EQ(c.counts().transitions, 0.0);
}

TEST(Controllers, TickMatchesRuns)
{
    MaxSleepController by_tick, by_run;
    // busy busy idle idle idle busy idle
    for (bool b : {true, true, false, false, false, true, false})
        by_tick.tick(b);
    by_tick.finish(); // flush the trailing idle interval
    by_run.activeRun(2);
    by_run.idleRun(3);
    by_run.activeRun(1);
    by_run.idleRun(1);
    EXPECT_DOUBLE_EQ(by_tick.counts().active, by_run.counts().active);
    EXPECT_DOUBLE_EQ(by_tick.counts().sleep, by_run.counts().sleep);
    EXPECT_DOUBLE_EQ(by_tick.counts().transitions,
                     by_run.counts().transitions);
}

TEST(Controllers, ConsecutiveIdleTicksFormOneInterval)
{
    MaxSleepController c;
    c.tick(true);
    for (int i = 0; i < 10; ++i)
        c.tick(false);
    c.tick(true);
    EXPECT_DOUBLE_EQ(c.counts().transitions, 1.0);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 10.0);
}

TEST(Controllers, RunCallsWithPendingTickIdleAreRejected)
{
    // Regression for the tick()/idleRun() interleaving footgun: an
    // explicit run call while tick()-fed idle is still accumulating
    // would silently split the interval, so the guard must throw.
    auto interleave = [](auto use) {
        MaxSleepController c;
        c.tick(true);
        c.tick(false); // leaves one pending idle cycle
        use(c);
    };
    expectRejects(
        [&] { interleave([](auto &c) { c.idleRun(3); }); },
        "pending");
    expectRejects(
        [&] { interleave([](auto &c) { c.idleRuns(3, 2); }); },
        "pending");
    expectRejects(
        [&] { interleave([](auto &c) { c.activeRun(4); }); },
        "pending");
}

TEST(Controllers, FinishUnblocksExplicitRunCalls)
{
    MaxSleepController c;
    c.tick(true);
    c.tick(false);
    c.finish(); // flushes the pending interval
    c.idleRun(3);
    c.activeRun(2);
    EXPECT_DOUBLE_EQ(c.counts().transitions, 2.0);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 4.0);
    EXPECT_DOUBLE_EQ(c.counts().active, 3.0);
}

TEST(GradualSleep, MatchesAnalyticalModel)
{
    const ModelParams mp = params();
    lsim::energy::GradualSleepModel model(mp, 20);
    GradualSleepController ctrl(20);
    ctrl.idleRun(37);
    const auto expect = model.idleCounts(37);
    EXPECT_NEAR(ctrl.counts().sleep, expect.sleep, 1e-9);
    EXPECT_NEAR(ctrl.counts().unctrl_idle, expect.unctrl_idle, 1e-9);
    EXPECT_NEAR(ctrl.counts().transitions, expect.transitions, 1e-9);
}

TEST(GradualSleep, ResetClearsCounts)
{
    GradualSleepController c(4);
    c.idleRun(10);
    c.reset();
    EXPECT_DOUBLE_EQ(c.counts().sleep, 0.0);
    EXPECT_DOUBLE_EQ(c.counts().transitions, 0.0);
}

TEST(GradualSleep, ZeroSlicesRejected)
{
    expectRejects([] { GradualSleepController c(0); (void)c; },
                  "slice count");
}

TEST(Timeout, WaitsThenSleeps)
{
    TimeoutController c(5);
    c.idleRun(3); // shorter than timeout: all uncontrolled
    EXPECT_DOUBLE_EQ(c.counts().unctrl_idle, 3.0);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 0.0);
    c.idleRun(12); // 5 uncontrolled + 7 asleep
    EXPECT_DOUBLE_EQ(c.counts().unctrl_idle, 8.0);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 7.0);
    EXPECT_DOUBLE_EQ(c.counts().transitions, 1.0);
}

TEST(Timeout, ZeroTimeoutIsMaxSleep)
{
    TimeoutController t(0);
    MaxSleepController m;
    for (Cycle len : {1u, 5u, 100u}) {
        t.idleRun(len);
        m.idleRun(len);
    }
    EXPECT_DOUBLE_EQ(t.counts().sleep, m.counts().sleep);
    EXPECT_DOUBLE_EQ(t.counts().transitions,
                     m.counts().transitions);
}

TEST(Oracle, ChoosesPerIntervalOptimum)
{
    const ModelParams mp = params();
    const double be = lsim::energy::breakevenInterval(mp);
    OracleController c(be);
    const auto below = static_cast<Cycle>(be) - 1;
    const auto above = static_cast<Cycle>(be) + 5;
    c.idleRun(below);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 0.0);
    c.idleRun(above);
    EXPECT_DOUBLE_EQ(c.counts().sleep, static_cast<double>(above));
    EXPECT_DOUBLE_EQ(c.counts().transitions, 1.0);
}

TEST(Oracle, NeverWorseThanEitherBoundingPolicy)
{
    const ModelParams mp = params();
    const EnergyModel model(mp);
    const double be = lsim::energy::breakevenInterval(mp);
    OracleController oracle(be);
    MaxSleepController ms;
    AlwaysActiveController aa;
    const Cycle lens[] = {1, 3, 5, 18, 20, 25, 60, 200, 1};
    for (Cycle len : lens) {
        oracle.idleRun(len);
        ms.idleRun(len);
        aa.idleRun(len);
    }
    const double e_oracle = model.normalizedEnergy(oracle.counts());
    EXPECT_LE(e_oracle, model.normalizedEnergy(ms.counts()) + 1e-9);
    EXPECT_LE(e_oracle, model.normalizedEnergy(aa.counts()) + 1e-9);
}

TEST(Adaptive, PredictionTracksIntervals)
{
    AdaptiveController c(20.0, 0.5);
    EXPECT_DOUBLE_EQ(c.prediction(), 20.0);
    c.idleRun(100);
    EXPECT_DOUBLE_EQ(c.prediction(), 60.0); // 0.5*100 + 0.5*20
    c.idleRun(2);
    EXPECT_DOUBLE_EQ(c.prediction(), 31.0);
}

TEST(Adaptive, SleepsWhenPredictingLong)
{
    AdaptiveController c(10.0, 0.25);
    // Initial prediction equals breakeven: sleeps immediately.
    c.idleRun(50);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 50.0);
    EXPECT_DOUBLE_EQ(c.counts().unctrl_idle, 0.0);
}

TEST(Adaptive, TimesOutWhenPredictingShort)
{
    AdaptiveController c(10.0, 1.0); // prediction = last interval
    c.idleRun(2);  // sleeps (initial prediction = breakeven)
    c.idleRun(30); // prediction now 2 -> timeout path: 10 ui + 20 sleep
    EXPECT_DOUBLE_EQ(c.counts().unctrl_idle, 10.0);
    EXPECT_DOUBLE_EQ(c.counts().sleep, 2.0 + 20.0);
    c.reset();
    EXPECT_DOUBLE_EQ(c.prediction(), 10.0);
}

TEST(Adaptive, InfiniteBreakevenNeverSleeps)
{
    // breakevenInterval is +inf at p = 0, alpha = 1 or k >= 1. A
    // finite prediction can never reach it, so the policy must idle
    // uncontrolled like AlwaysActive — it used to start predicting
    // +inf and sleep (paying a transition) on every interval.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double weight : {0.25, 1.0}) {
        AdaptiveController c(inf, weight);
        AlwaysActiveController aa;
        for (Cycle len :
             {Cycle{1}, Cycle{5000}, Cycle{3}, Cycle{1} << 20}) {
            c.idleRun(len);
            aa.idleRun(len);
        }
        EXPECT_EQ(c.counts().transitions, 0.0);
        EXPECT_EQ(c.counts().sleep, 0.0);
        EXPECT_EQ(c.counts().unctrl_idle, aa.counts().unctrl_idle);
        EXPECT_TRUE(std::isfinite(c.prediction()));
        c.reset();
        EXPECT_TRUE(std::isfinite(c.prediction()));
    }
}

TEST(Adaptive, BadWeightRejected)
{
    expectRejects([] { AdaptiveController c(10.0, 0.0); (void)c; },
                  "EWMA");
}

TEST(WeightedGradualSleep, UniformWeightsMatchGradualSleep)
{
    // Equal weights must reproduce the plain GradualSleep design.
    WeightedGradualSleepController weighted(
        {0.25, 0.25, 0.25, 0.25});
    GradualSleepController uniform(4);
    for (Cycle len : {1u, 2u, 3u, 4u, 5u, 50u}) {
        weighted.idleRun(len);
        uniform.idleRun(len);
    }
    EXPECT_NEAR(weighted.counts().sleep, uniform.counts().sleep,
                1e-9);
    EXPECT_NEAR(weighted.counts().unctrl_idle,
                uniform.counts().unctrl_idle, 1e-9);
    EXPECT_NEAR(weighted.counts().transitions,
                uniform.counts().transitions, 1e-9);
}

TEST(WeightedGradualSleep, FrontLoadedSleepsMoreEarly)
{
    // Datapath weights put most of the unit to sleep on cycle 1:
    // more sleep state than uniform slicing for short intervals.
    WeightedGradualSleepController dp(
        WeightedGradualSleepController::datapathWeights());
    GradualSleepController uniform(4);
    dp.idleRun(2);
    uniform.idleRun(2);
    EXPECT_GT(dp.counts().sleep, uniform.counts().sleep);
}

TEST(WeightedGradualSleep, ConservesCycles)
{
    WeightedGradualSleepController c(
        WeightedGradualSleepController::datapathWeights());
    for (Cycle len : {1u, 3u, 4u, 10u, 100u})
        c.idleRun(len);
    EXPECT_NEAR(c.counts().unctrl_idle + c.counts().sleep,
                1.0 + 3 + 4 + 10 + 100, 1e-9);
    EXPECT_LE(c.counts().transitions, 5.0 + 1e-12);
}

TEST(WeightedGradualSleep, BadWeightsRejected)
{
    expectRejects(
        [] { WeightedGradualSleepController c({}); (void)c; },
        "no slices");
    expectRejects(
        [] {
            WeightedGradualSleepController c({0.5, 0.4});
            (void)c;
        },
        "sum");
    expectRejects(
        [] {
            WeightedGradualSleepController c({1.5, -0.5});
            (void)c;
        },
        "positive");
}

TEST(Factories, PaperSetOrderAndNames)
{
    const auto set = PolicyRegistry::instance().makeSet(
        PolicyRegistry::paperSpecs(), params());
    ASSERT_EQ(set.size(), 4u);
    EXPECT_EQ(set[0]->name(), "MaxSleep");
    EXPECT_EQ(set[1]->name(), "GradualSleep");
    EXPECT_EQ(set[2]->name(), "AlwaysActive");
    EXPECT_EQ(set[3]->name(), "NoOverhead");
}

TEST(Factories, ExtensionSet)
{
    const auto set = PolicyRegistry::instance().makeSet(
        PolicyRegistry::extensionSpecs(), params());
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set[0]->name().substr(0, 7), "Timeout");
    EXPECT_EQ(set[1]->name(), "Oracle");
    EXPECT_EQ(set[2]->name(), "Adaptive");
}

/**
 * Property: the bulk idleRuns path must match the per-run loop for
 * every history-free controller.
 */
class BulkEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, Cycle>>
{
  protected:
    std::unique_ptr<SleepController>
    make(int which) const
    {
        switch (which) {
          case 0:
            return std::make_unique<AlwaysActiveController>();
          case 1:
            return std::make_unique<MaxSleepController>();
          case 2:
            return std::make_unique<NoOverheadController>();
          case 3:
            return std::make_unique<GradualSleepController>(20);
          case 4:
            return std::make_unique<TimeoutController>(10);
          default:
            return std::make_unique<OracleController>(20.0);
        }
    }
};

TEST_P(BulkEquivalenceTest, IdleRunsEqualsLoop)
{
    auto [which, len] = GetParam();
    auto bulk = make(which);
    auto loop = make(which);
    bulk->idleRuns(len, 137);
    for (int i = 0; i < 137; ++i)
        loop->idleRun(len);
    EXPECT_NEAR(bulk->counts().sleep, loop->counts().sleep, 1e-6);
    EXPECT_NEAR(bulk->counts().unctrl_idle,
                loop->counts().unctrl_idle, 1e-6);
    EXPECT_NEAR(bulk->counts().transitions,
                loop->counts().transitions, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllControllers, BulkEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values<Cycle>(1, 7, 10, 11, 20, 21,
                                                100)));

} // namespace
