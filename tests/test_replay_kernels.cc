/**
 * @file
 * Property tests for the batched replay kernels: across randomized
 * interval multisets, the kernel engine must be bit-identical — not
 * merely close — to the scalar reference (api::evaluateProfile, one
 * controller per policy) for every registry policy spec, including
 * argument variants; the Adaptive kernel must also match its
 * controller on a stream in no particular order, at every vector
 * width this host runs and every lane count up to two blocks; misuse
 * of a batch must throw; and a moved-from or finalized engine must
 * refuse to replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
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
 * engine and the scalar reference (one controller per policy, fed
 * through PolicyEvaluator) agree to the last bit at every point
 * under every policy spec.
 */
void
expectKernelMatchesScalar(const harness::IdleProfile &idle,
                          const std::vector<ModelParams> &points,
                          const std::vector<std::string> &specs)
{
    const auto kernel = replay::replayProfile(idle, points, specs);
    ASSERT_EQ(kernel.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t) {
        SCOPED_TRACE("point " + std::to_string(t));
        expectBitExact(kernel[t],
                       api::evaluateProfile(idle, points[t], specs));
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

TEST(ReplayKernels, RandomizedSetsMatchScalarBitExactly)
{
    // Counts are capped: adaptive steps through every run, one at a
    // time, on both paths.
    const auto points = somePoints();
    const auto specs = allPolicySpecs();
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectKernelMatchesScalar(randomProfile(seed, points, 2000),
                                  points, specs);
    }
    // One set at uncapped counts (up to a million runs a length).
    SCOPED_TRACE("seed 7, uncapped counts");
    expectKernelMatchesScalar(randomProfile(7, points), points, specs);
}

/** The KernelSpec of an Adaptive lane. */
sleep::KernelSpec
adaptiveSpec(double breakeven, double weight)
{
    sleep::KernelSpec spec;
    spec.kind = sleep::KernelSpec::Kind::Adaptive;
    spec.breakeven = breakeven;
    spec.ewma_weight = weight;
    return spec;
}

/** @p lanes' counts after replaying @p set whole into fresh
 * controllers, in stream order: the Adaptive kernel's reference. */
std::vector<energy::CycleCounts>
adaptiveReference(const replay::IntervalSet &set,
                  const std::vector<std::pair<double, double>> &lanes)
{
    std::vector<energy::CycleCounts> out;
    for (const auto &[breakeven, weight] : lanes) {
        sleep::AdaptiveController ctrl(breakeven, weight);
        ctrl.activeRun(set.active_cycles);
        for (std::size_t i = 0; i < set.numDistinct(); ++i)
            ctrl.idleRuns(set.lengths[i], set.counts[i]);
        out.push_back(ctrl.counts());
    }
    return out;
}

/** @p set replayed whole through one Adaptive batch of @p lanes at
 * @p width bits, checked lane by lane against @p expected. */
void
expectAdaptiveAtWidth(const replay::IntervalSet &set,
                      const std::vector<std::pair<double, double>> &lanes,
                      const std::vector<energy::CycleCounts> &expected,
                      unsigned width)
{
    replay::kernels::KernelBatch batch(sleep::KernelSpec::Kind::Adaptive);
    for (const auto &[breakeven, weight] : lanes)
        batch.addLane(adaptiveSpec(breakeven, weight));
    replay::kernels::AccumulatorBank bank;
    bank.resize(batch.lanes());
    replay::kernels::detail::runAtWidth(batch, width, set, bank);
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        const energy::CycleCounts got = bank.counts(lane);
        EXPECT_EQ(got.active, expected[lane].active);
        EXPECT_EQ(got.unctrl_idle, expected[lane].unctrl_idle);
        EXPECT_EQ(got.sleep, expected[lane].sleep);
        EXPECT_EQ(got.transitions, expected[lane].transitions);
    }
}

/** @p entries shuffled lengths in [1, 300], most with one run: the
 * shape of a time-ordered stream. */
replay::IntervalSet
shuffledStream(std::uint64_t seed, int entries)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Cycle> len(1, 300);
    std::uniform_int_distribution<std::uint64_t> cnt(1, 4);
    replay::IntervalSet set;
    set.active_cycles = 123'457;
    for (int i = 0; i < entries; ++i) {
        set.lengths.push_back(len(rng));
        set.counts.push_back(i % 5 == 0 ? cnt(rng) : 1);
        set.idle_cycles += set.lengths.back() * set.counts.back();
    }
    return set;
}

/** The widths this host runs, printed once so a CI log shows when a
 * runner lacked a wide vector unit. */
const std::vector<unsigned> &
testedWidths()
{
    const auto &widths = replay::kernels::detail::adaptiveWidths();
    static const bool printed = [&] {
        std::string list;
        for (unsigned w : widths)
            list += " " + std::to_string(w);
        std::printf("[  widths  ] Adaptive kernel tested at%s bits\n",
                    list.c_str());
        return true;
    }();
    (void)printed;
    return widths;
}

TEST(ReplayKernels, AdaptiveWidthsAscendFrom128AndRunUsesTheLast)
{
    const auto &widths = testedWidths();
    ASSERT_FALSE(widths.empty());
    EXPECT_EQ(widths.front(), 128u);
    EXPECT_TRUE(std::is_sorted(widths.begin(), widths.end()));
    EXPECT_EQ(std::adjacent_find(widths.begin(), widths.end()),
              widths.end());
    // KernelBatch::run, and the engine's Adaptive groups, take the
    // widest block.
    EXPECT_EQ(replay::kernels::adaptiveBlockLanes(),
              replay::kernels::detail::adaptiveBlockLanes(widths.back()));
    for (unsigned w : widths)
        EXPECT_GE(replay::kernels::detail::adaptiveBlockLanes(w), 4u);

    // A width this build or CPU does not run is refused.
    replay::kernels::KernelBatch batch(sleep::KernelSpec::Kind::Adaptive);
    batch.addLane(adaptiveSpec(10.0, 0.25));
    replay::kernels::AccumulatorBank bank;
    bank.resize(1);
    const replay::IntervalSet set = shuffledStream(1, 10);
    EXPECT_THROW(replay::kernels::detail::runAtWidth(batch, 64, set, bank),
                 std::invalid_argument);
    EXPECT_THROW(replay::kernels::detail::adaptiveBlockLanes(1024),
                 std::invalid_argument);
}

TEST(ReplayKernels, AdaptiveMatchesControllerInAnyStreamOrder)
{
    // The Adaptive kernel reads no order property of the stream: on
    // lengths in shuffled order (the shape of a time-ordered stream)
    // every lane must equal an AdaptiveController fed the same runs
    // in the same order, at every vector width. Seven lanes leave a
    // partial lane block, and 3,000 entries span three tiles.
    const replay::IntervalSet set = shuffledStream(2202, 3000);
    ASSERT_FALSE(std::is_sorted(set.lengths.begin(), set.lengths.end()));

    const std::vector<std::pair<double, double>> lanes = {
        {2.5, 0.25}, {17.3, 0.25}, {40.0, 0.5}, {99.9, 1.0},
        {250.0, 0.1}, {1e6, 0.25},
        {std::numeric_limits<double>::infinity(), 0.25}};
    const auto expected = adaptiveReference(set, lanes);
    for (unsigned width : testedWidths()) {
        SCOPED_TRACE("width " + std::to_string(width));
        expectAdaptiveAtWidth(set, lanes, expected, width);
    }
}

TEST(ReplayKernels, AdaptiveEveryLaneCountMatchesAtEveryWidth)
{
    // Every lane count from one to two blocks of the widest shape
    // plus one, so each width sees whole blocks, partial last blocks
    // and single lanes. The lanes rotate through infinite
    // breakevens, breakevens below one cycle and the 34 breakevens
    // of warm_grid's p sweep, under four EWMA weights.
    const replay::IntervalSet set = shuffledStream(4242, 1500);
    std::vector<std::pair<double, double>> configs = {
        {std::numeric_limits<double>::infinity(), 0.25},
        {0.25, 0.5},
        {0.5, 0.25},
        {0.999, 1.0}};
    const double weights[] = {0.25, 0.1, 0.5, 1.0};
    for (const auto &mp : api::pSweep(0.05, 1.0, 34))
        configs.emplace_back(energy::breakevenInterval(mp),
                             weights[configs.size() % 4]);
    const auto reference = adaptiveReference(set, configs);

    const auto &widths = testedWidths();
    const std::size_t max_lanes =
        2 * replay::kernels::detail::adaptiveBlockLanes(widths.back()) +
        1;
    for (std::size_t n = 1; n <= max_lanes; ++n) {
        std::vector<std::pair<double, double>> lanes;
        std::vector<energy::CycleCounts> expected;
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t c = (n + j) % configs.size();
            lanes.push_back(configs[c]);
            expected.push_back(reference[c]);
        }
        for (unsigned width : widths) {
            SCOPED_TRACE("lanes " + std::to_string(n) + ", width " +
                         std::to_string(width));
            expectAdaptiveAtWidth(set, lanes, expected, width);
        }
    }
}

TEST(ReplayKernels, AdaptiveRoundsTheEwmaUpdateTwiceAtEveryWidth)
{
    // AdaptiveController rounds `newest + keep * pred` twice. Each
    // case below starts from pred = breakeven, and its first run
    // leaves the prediction one ulp on one side of the breakeven
    // with two roundings and on the other side with one (a fused
    // multiply-add), so the second run's decision flips. Every lane
    // of two widest blocks plus one carries the case.
    struct Case
    {
        Cycle first;
        double breakeven;
        double weight;
        bool second_sleeps; ///< with two roundings
    };
    double be9 = 9.0; // 9 + 4 ulps
    for (int i = 0; i < 4; ++i)
        be9 = std::nextafter(be9, 10.0);
    const Case cases[] = {{3, 3.0, 0.05, false}, {9, be9, 0.2, true}};

    const auto &widths = testedWidths();
    const std::size_t lanes_n =
        2 * replay::kernels::detail::adaptiveBlockLanes(widths.back()) +
        1;
    for (const Case &c : cases) {
        SCOPED_TRACE("first run " + std::to_string(c.first));
        replay::IntervalSet set;
        set.lengths = {c.first, 1000};
        set.counts = {1, 1};
        set.idle_cycles = c.first + 1000;
        const std::vector<std::pair<double, double>> lanes(
            lanes_n, {c.breakeven, c.weight});
        const auto expected = adaptiveReference(set, lanes);
        // The first run sleeps (pred starts at the breakeven); a
        // short second run idles until the breakeven.
        EXPECT_EQ(expected[0].unctrl_idle,
                  c.second_sleeps ? 0.0 : c.breakeven);
        for (unsigned width : widths) {
            SCOPED_TRACE("width " + std::to_string(width));
            expectAdaptiveAtWidth(set, lanes, expected, width);
        }
    }
}

TEST(ReplayKernels, MisuseThrowsAndLeavesTheBatchUnchanged)
{
    using Kind = sleep::KernelSpec::Kind;
    sleep::KernelSpec timeout;
    timeout.kind = Kind::Timeout;
    timeout.timeout = 64;

    // A spec of another kind.
    replay::kernels::KernelBatch gradual(Kind::Gradual);
    EXPECT_THROW(gradual.addLane(timeout), std::invalid_argument);
    // Gradual with no slices.
    sleep::KernelSpec no_slices;
    no_slices.kind = Kind::Gradual;
    EXPECT_THROW(gradual.addLane(no_slices), std::invalid_argument);
    EXPECT_EQ(gradual.lanes(), 0u);

    // Weighted-gradual without weights, or with weights that do not
    // sum to 1.
    replay::kernels::KernelBatch weighted(Kind::WeightedGradual);
    sleep::KernelSpec no_weights;
    no_weights.kind = Kind::WeightedGradual;
    EXPECT_THROW(weighted.addLane(no_weights), std::invalid_argument);
    sleep::KernelSpec bad_sum = no_weights;
    bad_sum.weights = {0.5, 0.6};
    EXPECT_THROW(weighted.addLane(bad_sum), std::invalid_argument);
    EXPECT_EQ(weighted.lanes(), 0u);

    // A bank whose lane count is not the batch's.
    replay::kernels::KernelBatch timeouts(Kind::Timeout);
    timeouts.addLane(timeout);
    replay::kernels::AccumulatorBank bank;
    bank.resize(2);
    const replay::IntervalSet set = shuffledStream(3, 10);
    EXPECT_THROW(timeouts.run(set, bank), std::invalid_argument);
    EXPECT_EQ(bank.active, std::vector<double>(2, 0.0));

    // An engine asked to shard its stream into chunks.
    replay::ReplayOptions chunked;
    chunked.chunk_intervals = 4;
    EXPECT_THROW(replay::MultiPointReplay(set, api::pSweep(0.05, 1.0, 2),
                                          {}, chunked),
                 std::invalid_argument);
}

TEST(ReplayKernels, EmptyAndDegenerateSets)
{
    const auto points = somePoints();
    const auto specs = allPolicySpecs(); // adaptive included: cheap

    harness::IdleProfile empty;
    expectKernelMatchesScalar(empty, points, specs);

    harness::IdleProfile active_only;
    active_only.addRun(true, 4096);
    expectKernelMatchesScalar(active_only, points, specs);

    // Single-interval sets at boundary-sensitive lengths: 1, the
    // explicit timeout, one past it, and deep saturation.
    for (Cycle len : {Cycle{1}, Cycle{64}, Cycle{65}, Cycle{8192}}) {
        SCOPED_TRACE("len " + std::to_string(len));
        harness::IdleProfile one;
        one.addRun(true, 1000);
        one.addRun(false, len);
        expectKernelMatchesScalar(one, points, specs);
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
    expectKernelMatchesScalar(idle, points,
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
    EXPECT_EQ(engine.numTasks(), 4u);
    EXPECT_EQ(engine.numKernelUnits(), engine.numUnits());
}

TEST(ReplayKernels, WarmGridPoliciesFullyKernelize)
{
    const auto points = api::pSweep(0.05, 1.0, 34);
    const auto idle = randomProfile(9, points);
    replay::MultiPointReplay engine(
        replay::IntervalSet::fromProfile(idle), points,
        kWarmGridPolicies);
    EXPECT_EQ(engine.numKernelUnits(), engine.numUnits());
    // Six history-free groups, plus 34 adaptive lanes in groups of
    // one kernel block: one whole-stream task each.
    const std::size_t block = replay::kernels::adaptiveBlockLanes();
    EXPECT_EQ(engine.numTasks(),
              6u + (points.size() + block - 1) / block);

    // Adaptive is the one policy grouped by kernel block.
    for (const auto &key : kWarmGridPolicies) {
        SCOPED_TRACE(key);
        EXPECT_EQ(sleep::PolicyRegistry::instance()
                      .resolve(key)
                      .spec(points.front())
                      .historyFree(),
                  key != "adaptive");
    }
}

TEST(ReplayKernels, MovedFromEngineRefusesToReplay)
{
    const auto points = api::pSweep(0.05, 1.0, 3);
    const auto idle = randomProfile(5, points);

    replay::MultiPointReplay source(
        replay::IntervalSet::fromProfile(idle), points, {});
    replay::MultiPointReplay engine(std::move(source));

    // The destination owns the replay end to end, and finalizes
    // once...
    engine.runAll();
    const auto results = engine.finalize();
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t)
        expectBitExact(results[t],
                       api::evaluateProfile(idle, points[t]));
    EXPECT_THROW((void)engine.finalize(), std::logic_error);

    // ...and the moved-from shell refuses every entry point instead
    // of silently replaying emptied vectors.
    EXPECT_THROW(source.runTask(0), std::logic_error);
    EXPECT_THROW(source.runAll(), std::logic_error);
    EXPECT_THROW((void)source.finalize(), std::logic_error);

    // Move assignment leaves the right-hand side equally inert.
    replay::MultiPointReplay other(
        replay::IntervalSet::fromProfile(idle), points, {});
    replay::MultiPointReplay target(
        replay::IntervalSet::fromProfile(idle), points, {});
    target = std::move(other);
    EXPECT_THROW(other.runAll(), std::logic_error);
    target.runAll();
    (void)target.finalize();
}

} // namespace
