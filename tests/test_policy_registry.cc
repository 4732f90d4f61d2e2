/**
 * @file
 * Unit tests for the string-keyed sleep-policy registry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "api/sweep.hh"
#include "energy/breakeven.hh"
#include "energy/gradual_sleep_model.hh"
#include "replay/engine.hh"
#include "sleep/policy_registry.hh"

namespace
{

using lsim::energy::ModelParams;
using lsim::sleep::AdaptiveController;
using lsim::sleep::GradualSleepController;
using lsim::sleep::OracleController;
using lsim::sleep::PolicyRegistry;
using lsim::sleep::TimeoutController;
using lsim::sleep::WeightedGradualSleepController;

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

TEST(PolicyRegistry, EveryRegisteredNameConstructs)
{
    const auto &reg = PolicyRegistry::instance();
    const auto keys = reg.keys();
    EXPECT_GE(keys.size(), 8u);
    for (const auto &key : keys) {
        SCOPED_TRACE(key);
        auto ctrl = reg.make(key, params());
        ASSERT_NE(ctrl, nullptr);
        EXPECT_FALSE(ctrl->name().empty());
        EXPECT_FALSE(reg.summary(key).empty());
        EXPECT_TRUE(reg.has(key));
    }
}

TEST(PolicyRegistry, OversizedCountsThrow)
{
    const auto &reg = PolicyRegistry::instance();
    EXPECT_THROW(reg.make("timeout:4294967296", params()),
                 std::invalid_argument);
    EXPECT_THROW(reg.make("gradual:4294967296", params()),
                 std::invalid_argument);
}

TEST(PolicyRegistry, UnknownNamesThrow)
{
    const auto &reg = PolicyRegistry::instance();
    EXPECT_THROW(reg.make("bogus", params()), std::invalid_argument);
    EXPECT_THROW(reg.make("", params()), std::invalid_argument);
    EXPECT_THROW(reg.make("gradual-sleep", params()),
                 std::invalid_argument);
    EXPECT_THROW(reg.makeSet({"max-sleep", "nope"}, params()),
                 std::invalid_argument);
    EXPECT_FALSE(reg.has("bogus"));
    EXPECT_THROW(reg.summary("bogus"), std::invalid_argument);
}

TEST(PolicyRegistry, MalformedArgumentsThrow)
{
    const auto &reg = PolicyRegistry::instance();
    EXPECT_THROW(reg.make("timeout:abc", params()),
                 std::invalid_argument);
    EXPECT_THROW(reg.make("timeout:0", params()),
                 std::invalid_argument);
    EXPECT_THROW(reg.make("gradual:-3", params()),
                 std::invalid_argument);
    EXPECT_THROW(reg.make("gradual:12x", params()),
                 std::invalid_argument);
    EXPECT_THROW(reg.make("adaptive:2.0", params()),
                 std::invalid_argument);
    EXPECT_THROW(reg.make("weighted-gradual:0.5,oops", params()),
                 std::invalid_argument);
}

TEST(PolicyRegistry, DefaultsFollowTheTechnologyPoint)
{
    // "gradual" sizes its slice count to the breakeven interval of
    // the supplied technology point.
    const auto mp = params(0.05);
    const auto be = lsim::energy::breakevenInterval(mp);
    const auto ctrl =
        PolicyRegistry::instance().make("gradual", mp);
    EXPECT_EQ(dynamic_cast<GradualSleepController &>(*ctrl)
                  .numSlices(),
              static_cast<unsigned>(std::llround(be)));

    // "oracle" picks up the breakeven threshold directly.
    const auto oracle =
        PolicyRegistry::instance().make("oracle", mp);
    EXPECT_DOUBLE_EQ(
        dynamic_cast<OracleController &>(*oracle).breakeven(), be);
}

TEST(PolicyRegistry, HugeBreakevensSaturateInsteadOfWrapping)
{
    const auto &reg = PolicyRegistry::instance();
    const auto slices = [&](double p) {
        return dynamic_cast<GradualSleepController &>(
                   *reg.make("gradual", params(p)))
            .numSlices();
    };
    const auto timeout = [&](double p) {
        return dynamic_cast<TimeoutController &>(
                   *reg.make("timeout", params(p)))
            .timeout();
    };
    constexpr unsigned kMaxSlices = std::numeric_limits<unsigned>::max();
    constexpr lsim::Cycle kMaxCycle =
        std::numeric_limits<lsim::Cycle>::max();

    // An ordinary point rounds as before.
    EXPECT_EQ(slices(0.05), 20u);
    EXPECT_EQ(timeout(0.05), 20u);

    // p = 1e-10: a breakeven of ~1.02e10 cycles is past 2^32, so the
    // slice count saturates (it used to wrap to 1,620,275,618); the
    // timeout still fits and rounds.
    const double be10 = lsim::energy::breakevenInterval(params(1e-10));
    ASSERT_GT(be10, static_cast<double>(kMaxSlices));
    EXPECT_EQ(slices(1e-10), kMaxSlices);
    EXPECT_EQ(timeout(1e-10),
              static_cast<lsim::Cycle>(std::llround(be10)));

    // p = 1e-300: ~1.02e300 cycles, past llround's range. Gradual
    // used to fall to one slice (MaxSleep), the timeout to 2^63.
    EXPECT_EQ(slices(1e-300), kMaxSlices);
    EXPECT_EQ(timeout(1e-300), kMaxCycle);

    // The analytic model rounds through the same function.
    EXPECT_EQ(lsim::energy::GradualSleepModel(params(1e-10)).numSlices(),
              kMaxSlices);

    // An infinite breakeven keeps its own mapping.
    EXPECT_EQ(slices(0.0), 1u);
    EXPECT_EQ(timeout(0.0), lsim::Cycle{1} << 20);
}

TEST(PolicyRegistry, ParameterizedArgumentsConfigure)
{
    const auto &reg = PolicyRegistry::instance();
    EXPECT_EQ(dynamic_cast<TimeoutController &>(
                  *reg.make("timeout:128", params()))
                  .timeout(),
              128u);
    EXPECT_EQ(reg.make("timeout:64", params())->name(), "Timeout(64)");
    EXPECT_EQ(dynamic_cast<GradualSleepController &>(
                  *reg.make("gradual:16", params()))
                  .numSlices(),
              16u);

    // Non-default weights and EWMA weight reach the controller, not
    // the defaults.
    const auto ad = reg.make("adaptive:0.5", params());
    EXPECT_DOUBLE_EQ(dynamic_cast<AdaptiveController &>(*ad).prediction(),
                     lsim::energy::breakevenInterval(params()));
    EXPECT_EQ(dynamic_cast<AdaptiveController &>(*ad).ewmaWeight(), 0.5);
    const auto wg = reg.make("weighted-gradual:0.5,0.25,0.25",
                             params());
    const auto &weights =
        dynamic_cast<WeightedGradualSleepController &>(*wg).weights();
    ASSERT_EQ(weights.size(), 3u);
    EXPECT_DOUBLE_EQ(weights[0], 0.5);
    EXPECT_EQ(dynamic_cast<WeightedGradualSleepController &>(
                  *reg.make("weighted-gradual:0.9,0.1", params()))
                  .weights(),
              (std::vector<double>{0.9, 0.1}));
}

TEST(PolicyRegistry, WeightsNotSummingToOneAreRefusedWhereverASpecEnters)
{
    // The registry, the replay engine's constructor (before any task
    // runs) and the sweep runner's constructor each refuse a
    // weighted-gradual spec whose weights do not sum to 1.
    const auto points = lsim::api::pSweep(0.05, 1.0, 3);
    for (const char *spec :
         {"weighted-gradual:0.5,0.6", "weighted-gradual:0.5,0.4"}) {
        SCOPED_TRACE(spec);
        EXPECT_THROW(PolicyRegistry::instance().make(spec, params()),
                     std::invalid_argument);
        EXPECT_THROW(PolicyRegistry::instance().resolve(spec).spec(
                         params()),
                     std::invalid_argument);
        EXPECT_THROW(lsim::replay::MultiPointReplay(
                         lsim::replay::IntervalSet{}, points, {spec}),
                     std::invalid_argument);
        lsim::api::SweepConfig cfg;
        cfg.workloads = {"gcc"};
        cfg.technologies = points;
        cfg.policies = {spec};
        EXPECT_THROW(lsim::api::SweepRunner{cfg}, std::invalid_argument);
    }
}

TEST(PolicyRegistry, MakeSetPreservesOrder)
{
    const auto set = PolicyRegistry::instance().makeSet(
        {"no-overhead", "max-sleep", "always-active"}, params());
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set[0]->name(), "NoOverhead");
    EXPECT_EQ(set[1]->name(), "MaxSleep");
    EXPECT_EQ(set[2]->name(), "AlwaysActive");
}

} // namespace
