/**
 * @file
 * Property tests for the batched replay kernels: across randomized
 * interval multisets, the kernel path must be bit-identical — not
 * merely close — to the virtual-dispatch controllers for every
 * registry policy spec, including argument variants; the Adaptive
 * kernel must also match its controller on a stream in no
 * particular order; unknown policies must transparently fall back;
 * and a moved-from engine must refuse to replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "api/experiment.hh"
#include "api/sweep.hh"
#include "energy/breakeven.hh"
#include "harness/experiment.hh"
#include "replay/engine.hh"
#include "replay/kernels.hh"
#include "sleep/controllers.hh"
#include "sleep/kernel_spec.hh"
#include "sleep/policy_registry.hh"

namespace
{

using namespace lsim;
using lsim::energy::ModelParams;

/** Every registered policy key plus explicit-argument variants. */
std::vector<std::string>
allPolicySpecs()
{
    auto specs = sleep::PolicyRegistry::instance().keys();
    specs.push_back("gradual:1");
    specs.push_back("gradual:7");
    specs.push_back("timeout:1");
    specs.push_back("timeout:64");
    specs.push_back("adaptive:0.5");
    specs.push_back("adaptive:1");
    specs.push_back("weighted-gradual:0.5,0.3,0.2");
    return specs;
}

/** Points spanning small, large and infinite (p = 0) breakeven
 * intervals. */
std::vector<ModelParams>
somePoints()
{
    auto points = api::pSweep(0.05, 1.0, 5);
    points.push_back(api::analysisPoint(0.3, 0.25));
    points.push_back(api::analysisPoint(0.7, 0.9));
    points.push_back(api::analysisPoint(0.0));
    return points;
}

/** The seven policies of perfbench's warm_grid workload. */
const std::vector<std::string> kWarmGridPolicies = {
    "max-sleep", "gradual", "always-active", "no-overhead",
    "timeout:64", "oracle", "adaptive"};

void
expectBitExact(const std::vector<sleep::PolicyResult> &a,
               const std::vector<sleep::PolicyResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].counts.active, b[i].counts.active);
        EXPECT_EQ(a[i].counts.unctrl_idle, b[i].counts.unctrl_idle);
        EXPECT_EQ(a[i].counts.sleep, b[i].counts.sleep);
        EXPECT_EQ(a[i].counts.transitions, b[i].counts.transitions);
        EXPECT_EQ(a[i].energy, b[i].energy);
        EXPECT_EQ(a[i].relative_to_base, b[i].relative_to_base);
        EXPECT_EQ(a[i].leakage_fraction, b[i].leakage_fraction);
    }
}

/**
 * The property under test: for any interval multiset, the kernel
 * engine (default) and the virtual-dispatch engine
 * (use_kernels = false) agree to the last bit at every point under
 * every policy spec.
 */
void
expectKernelMatchesVirtual(const harness::IdleProfile &idle,
                           const std::vector<ModelParams> &points,
                           const std::vector<std::string> &specs)
{
    replay::ReplayOptions virt;
    virt.use_kernels = false;
    const auto kernel = replay::replayProfile(idle, points, specs);
    const auto virtual_path =
        replay::replayProfile(idle, points, specs, virt);
    ASSERT_EQ(kernel.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t) {
        SCOPED_TRACE("point " + std::to_string(t));
        expectBitExact(kernel[t], virtual_path[t]);
    }
}

/**
 * A randomized multiset: lengths drawn from mixed scales (short
 * runs, mid-range, log-uniform tails) plus values straddling the
 * breakeven-derived thresholds of the points under test, so the
 * timeout/oracle partition points and the gradual saturation
 * boundary all land inside the array. Counts are drawn from
 * [1, max_count].
 */
harness::IdleProfile
randomProfile(std::uint64_t seed,
              const std::vector<ModelParams> &points,
              std::uint64_t max_count = 1'000'000)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Cycle> shortlen(1, 50);
    std::uniform_int_distribution<Cycle> midlen(51, 4000);
    std::uniform_real_distribution<double> logtail(2.0, 17.0);
    std::uniform_int_distribution<std::uint64_t> cnt(1, max_count);
    std::uniform_int_distribution<int> coin(0, 3);

    std::set<Cycle> lengths;
    const std::size_t distinct = 20 + seed % 180;
    while (lengths.size() < distinct) {
        switch (coin(rng)) {
        case 0:
            lengths.insert(shortlen(rng));
            break;
        case 1:
            lengths.insert(midlen(rng));
            break;
        default:
            lengths.insert(static_cast<Cycle>(
                std::exp2(logtail(rng))));
            break;
        }
    }
    // Straddle every threshold a policy in the suite could use:
    // breakeven (oracle/timeout defaults, gradual slice counts) and
    // the explicit timeout:64 variant.
    for (const auto &mp : points) {
        const double be = energy::breakevenInterval(mp);
        if (be >= 2.0 && be < 1e6) {
            const auto b = static_cast<Cycle>(be);
            lengths.insert(b - 1);
            lengths.insert(b);
            lengths.insert(b + 1);
        }
    }
    for (Cycle edge : {Cycle{63}, Cycle{64}, Cycle{65}})
        lengths.insert(edge);

    harness::IdleProfile idle;
    idle.num_fus = 2;
    idle.active_cycles = coin(rng) == 0 ? 0 : cnt(rng);
    for (Cycle len : lengths) {
        const std::uint64_t count = cnt(rng);
        idle.intervals[len] = count;
        idle.idle_cycles += len * count;
    }
    return idle;
}

TEST(ReplayKernels, RandomizedSetsMatchVirtualBitExactly)
{
    // Counts are capped: adaptive steps through every run, one at a
    // time, on both paths.
    const auto points = somePoints();
    const auto specs = allPolicySpecs();
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectKernelMatchesVirtual(randomProfile(seed, points, 2000),
                                   points, specs);
    }
}

TEST(ReplayKernels, AdaptiveMatchesControllerInAnyStreamOrder)
{
    // The Adaptive kernel reads no order property of the stream: on
    // lengths in shuffled order (the shape of a time-ordered stream)
    // every lane must equal an AdaptiveController fed the same runs
    // in the same order. Seven lanes leave a partial lane block, and
    // 3,000 entries span three tiles.
    std::mt19937_64 rng(2202);
    std::uniform_int_distribution<Cycle> len(1, 300);
    std::uniform_int_distribution<std::uint64_t> cnt(1, 4);
    replay::IntervalSet set;
    set.active_cycles = 123'457;
    for (int i = 0; i < 3000; ++i) {
        set.lengths.push_back(len(rng));
        set.counts.push_back(i % 5 == 0 ? cnt(rng) : 1);
        set.idle_cycles += set.lengths.back() * set.counts.back();
    }
    ASSERT_FALSE(std::is_sorted(set.lengths.begin(), set.lengths.end()));

    const std::pair<double, double> configs[] = {
        {2.5, 0.25}, {17.3, 0.25}, {40.0, 0.5}, {99.9, 1.0},
        {250.0, 0.1}, {1e6, 0.25},
        {std::numeric_limits<double>::infinity(), 0.25}};
    replay::kernels::KernelBatch batch(sleep::KernelSpec::Kind::Adaptive);
    std::vector<sleep::AdaptiveController> controllers;
    for (const auto &[breakeven, weight] : configs) {
        batch.addLane(sleep::AdaptiveController(breakeven, weight)
                          .kernelSpec());
        controllers.emplace_back(breakeven, weight);
    }
    replay::kernels::AccumulatorBank bank;
    bank.resize(batch.lanes());
    batch.run(set, 0, set.numDistinct(), true, bank);

    for (std::size_t lane = 0; lane < controllers.size(); ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        sleep::AdaptiveController &ctrl = controllers[lane];
        ctrl.activeRun(set.active_cycles);
        for (std::size_t i = 0; i < set.numDistinct(); ++i)
            ctrl.idleRuns(set.lengths[i], set.counts[i]);
        const energy::CycleCounts got = bank.counts(lane);
        EXPECT_EQ(got.active, ctrl.counts().active);
        EXPECT_EQ(got.unctrl_idle, ctrl.counts().unctrl_idle);
        EXPECT_EQ(got.sleep, ctrl.counts().sleep);
        EXPECT_EQ(got.transitions, ctrl.counts().transitions);
    }
}

TEST(ReplayKernels, RandomizedSetsMatchScalarBitExactly)
{
    // Transitivity guard: the virtual engine is itself checked
    // against the scalar path elsewhere; spot-check the kernel
    // engine against the scalar path directly too.
    const auto points = somePoints();
    const auto specs = allPolicySpecs();
    const auto idle = randomProfile(7, points);
    const auto kernel = replay::replayProfile(idle, points, specs);
    for (std::size_t t = 0; t < points.size(); ++t) {
        SCOPED_TRACE("point " + std::to_string(t));
        expectBitExact(kernel[t],
                       api::evaluateProfile(idle, points[t], specs));
    }
}

TEST(ReplayKernels, EmptyAndDegenerateSets)
{
    const auto points = somePoints();
    const auto specs = allPolicySpecs(); // adaptive included: cheap

    harness::IdleProfile empty;
    expectKernelMatchesVirtual(empty, points, specs);

    harness::IdleProfile active_only;
    active_only.addRun(true, 4096);
    expectKernelMatchesVirtual(active_only, points, specs);

    // Single-interval sets at boundary-sensitive lengths: 1, the
    // explicit timeout, one past it, and deep saturation.
    for (Cycle len : {Cycle{1}, Cycle{64}, Cycle{65}, Cycle{8192}}) {
        SCOPED_TRACE("len " + std::to_string(len));
        harness::IdleProfile one;
        one.addRun(true, 1000);
        one.addRun(false, len);
        expectKernelMatchesVirtual(one, points, specs);
    }
}

TEST(ReplayKernels, OracleLookaheadStraddlesBreakeven)
{
    // The oracle's per-interval choice flips exactly at the
    // breakeven threshold; a dense ladder across it exercises both
    // sides and the equality edge of the partition search.
    const auto points = somePoints();
    harness::IdleProfile idle;
    idle.num_fus = 1;
    idle.addRun(true, 5000);
    for (const auto &mp : points) {
        const double be = energy::breakevenInterval(mp);
        if (!(be >= 2.0) || be >= 1e6)
            continue;
        const auto b = static_cast<Cycle>(be);
        for (Cycle len = b > 3 ? b - 3 : 1; len <= b + 3; ++len)
            idle.intervals[len] += 10;
    }
    for (const auto &[len, count] : idle.intervals)
        idle.idle_cycles += len * count;
    expectKernelMatchesVirtual(idle, points,
                               {"oracle", "timeout", "gradual"});
}

TEST(ReplayKernels, PaperPoliciesFullyKernelize)
{
    const auto idle = randomProfile(3, somePoints());
    replay::MultiPointReplay engine(
        replay::IntervalSet::fromProfile(idle),
        api::pSweep(0.05, 1.0, 20), {});
    // max-sleep, gradual, always-active, no-overhead: one kernel
    // group per kind, every unit on the kernel path.
    EXPECT_EQ(engine.numKernelGroups(), 4u);
    EXPECT_EQ(engine.numKernelUnits(), engine.numUnits());
}

/** A controller the engine knows nothing about: accounting happens
 * to match AlwaysActive, but it does not override kernelSpec(). */
class OpaqueController : public sleep::SleepController
{
  public:
    std::string name() const override { return "Opaque"; }

  protected:
    void doIdleRun(Cycle len) override
    {
        counts_.unctrl_idle += static_cast<double>(len);
    }
};

TEST(ReplayKernels, WarmGridPoliciesFullyKernelize)
{
    const auto points = api::pSweep(0.05, 1.0, 34);
    const auto idle = randomProfile(9, points);
    replay::MultiPointReplay engine(
        replay::IntervalSet::fromProfile(idle), points,
        kWarmGridPolicies);
    EXPECT_EQ(engine.numKernelUnits(), engine.numUnits());
    // Six history-free groups, plus 34 adaptive lanes in groups of
    // up to eight: one whole-stream task each.
    EXPECT_EQ(engine.numKernelGroups(), 6u + 5u);
}

TEST(ReplayKernels, OnlyUnknownPoliciesFallBack)
{
    sleep::PolicyRegistry::instance().add(
        "opaque-test", "unclassified test policy",
        sleep::PolicyRegistry::Factory(
            [](const ModelParams &, const std::string &) {
                return std::make_unique<OpaqueController>();
            }));

    const auto points = api::pSweep(0.05, 1.0, 6);
    const std::vector<std::string> specs = {"opaque-test", "adaptive",
                                            "max-sleep"};
    const auto idle = randomProfile(11, points);
    replay::MultiPointReplay engine(
        replay::IntervalSet::fromProfile(idle), points, specs);

    // max-sleep (one deduplicated unit) and adaptive (one lane per
    // point) kernelize; the unclassified policy cannot dedup across
    // points and falls back, one unit per point.
    EXPECT_EQ(engine.numKernelGroups(), 2u);
    EXPECT_EQ(engine.numKernelUnits(), 1u + points.size());
    EXPECT_EQ(engine.numUnits(), 1u + 2u * points.size());

    // And both paths reproduce the scalar results bit for bit,
    // adaptive's interval-order history included.
    engine.runAll();
    const auto results = engine.finalize();
    for (std::size_t t = 0; t < points.size(); ++t) {
        SCOPED_TRACE("point " + std::to_string(t));
        expectBitExact(results[t],
                       api::evaluateProfile(idle, points[t], specs));
    }
}

TEST(ReplayKernels, KernelSpecRoundTripsThroughControllers)
{
    // Every built-in controller's self-classification reconstructs
    // an equivalent controller.
    const auto mp = api::analysisPoint(0.2);
    const auto &registry = sleep::PolicyRegistry::instance();
    for (const char *spec :
         {"always-active", "max-sleep", "no-overhead", "gradual:9",
          "weighted-gradual:0.5,0.25,0.25", "timeout:42", "oracle",
          "adaptive", "adaptive:0.5"}) {
        SCOPED_TRACE(spec);
        const auto ctrl = registry.make(spec, mp);
        const auto kspec = ctrl->kernelSpec();
        ASSERT_TRUE(kspec.hasKernel());
        const auto rebuilt = kspec.makeController();
        EXPECT_EQ(rebuilt->name(), ctrl->name());
        EXPECT_TRUE(rebuilt->kernelSpec() == kspec);
    }
    // Adaptive has a kernel but carries history, so it never
    // shards; the base-class default classifies as None.
    EXPECT_FALSE(registry.make("adaptive", mp)
                     ->kernelSpec()
                     .historyFree());
    EXPECT_FALSE(OpaqueController().kernelSpec().hasKernel());
}

TEST(ReplayKernels, MovedFromEngineRefusesToReplay)
{
    const auto points = api::pSweep(0.05, 1.0, 3);
    const auto idle = randomProfile(5, points);

    replay::MultiPointReplay source(
        replay::IntervalSet::fromProfile(idle), points, {});
    replay::MultiPointReplay engine(std::move(source));

    // The destination owns the replay end to end...
    engine.runAll();
    const auto results = engine.finalize();
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t)
        expectBitExact(results[t],
                       api::evaluateProfile(idle, points[t]));

    // ...and the moved-from shell refuses every entry point instead
    // of silently replaying emptied vectors.
    EXPECT_DEATH(source.runTask(0), "moved from");
    EXPECT_DEATH(source.runAll(), "moved from");
    EXPECT_DEATH((void)source.finalize(), "moved from");

    // Move assignment leaves the right-hand side equally inert.
    replay::MultiPointReplay other(
        replay::IntervalSet::fromProfile(idle), points, {});
    replay::MultiPointReplay target(
        replay::IntervalSet::fromProfile(idle), points, {});
    target = std::move(other);
    EXPECT_DEATH(other.runAll(), "moved from");
    target.runAll();
    (void)target.finalize();
}

} // namespace
