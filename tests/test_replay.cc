/**
 * @file
 * Unit tests for the multi-point replay engine: bit-exact
 * scalar-path equivalence across every registry policy, on every
 * input and at any thread count, and the empty/degenerate cells that
 * must not divide by zero.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "api/experiment.hh"
#include "api/parallel.hh"
#include "api/sweep.hh"
#include "harness/experiment.hh"
#include "obs/metrics.hh"
#include "replay/engine.hh"
#include "sleep/policy_registry.hh"

namespace
{

using namespace lsim;
using lsim::energy::ModelParams;

/** A hand-built interval multiset exercising short runs, the log2
 * bucket spread, and the >= 8192 clamp region. */
harness::IdleProfile
syntheticProfile()
{
    harness::IdleProfile idle;
    idle.num_fus = 2;
    idle.addRun(true, 12'345);
    const std::pair<Cycle, std::uint64_t> runs[] = {
        {1, 400}, {2, 210},  {3, 77},    {5, 31},    {9, 19},
        {17, 11}, {40, 7},   {100, 5},   {260, 3},   {900, 2},
        {3000, 2}, {8192, 1}, {20'000, 1}, {65'536, 1}};
    for (const auto &[len, count] : runs)
        for (std::uint64_t i = 0; i < count; ++i)
            idle.addRun(false, len);
    return idle;
}

/** @p distinct consecutive interval lengths from 1, under a
 * power-law count decay: more distinct lengths than any simulated
 * workload holds (116-138), the shape of a large imported profile. */
harness::IdleProfile
wideProfile(Cycle distinct)
{
    harness::IdleProfile idle;
    idle.num_fus = 2;
    idle.addRun(true, 50'000'000);
    for (Cycle len = 1; len <= distinct; ++len) {
        const std::uint64_t count = 1 + 2'000'000 / (len * len + 100);
        idle.intervals[len] = count;
        idle.idle_cycles += len * count;
    }
    return idle;
}

/** Every registered policy key plus explicit-argument variants. */
std::vector<std::string>
allPolicySpecs()
{
    auto specs = sleep::PolicyRegistry::instance().keys();
    specs.push_back("gradual:7");
    specs.push_back("timeout:64");
    specs.push_back("adaptive:0.5");
    specs.push_back("weighted-gradual:0.5,0.3,0.2");
    return specs;
}

std::vector<ModelParams>
somePoints()
{
    auto points = api::pSweep(0.05, 1.0, 6);
    points.push_back(api::analysisPoint(0.3, 0.25));
    points.push_back(api::analysisPoint(0.7, 0.9));
    return points;
}

void
expectBitExact(const std::vector<sleep::PolicyResult> &multi,
               const std::vector<sleep::PolicyResult> &scalar)
{
    ASSERT_EQ(multi.size(), scalar.size());
    for (std::size_t i = 0; i < multi.size(); ++i) {
        EXPECT_EQ(multi[i].name, scalar[i].name);
        EXPECT_EQ(multi[i].energy, scalar[i].energy);
        EXPECT_EQ(multi[i].relative_to_base,
                  scalar[i].relative_to_base);
        EXPECT_EQ(multi[i].leakage_fraction,
                  scalar[i].leakage_fraction);
        EXPECT_EQ(multi[i].counts.active, scalar[i].counts.active);
        EXPECT_EQ(multi[i].counts.unctrl_idle,
                  scalar[i].counts.unctrl_idle);
        EXPECT_EQ(multi[i].counts.sleep, scalar[i].counts.sleep);
        EXPECT_EQ(multi[i].counts.transitions,
                  scalar[i].counts.transitions);
    }
}

TEST(IntervalSet, FlattensSortedAndDropsZeroes)
{
    harness::IdleProfile idle;
    idle.active_cycles = 500;
    idle.intervals[7] = 3;
    idle.intervals[2] = 5;
    idle.intervals[0] = 9;  // length 0: dropped like feedRuns does
    idle.intervals[100] = 0; // count 0: dropped
    const auto set = replay::IntervalSet::fromProfile(idle);
    ASSERT_EQ(set.numDistinct(), 2u);
    EXPECT_EQ(set.lengths[0], 2u);
    EXPECT_EQ(set.lengths[1], 7u);
    EXPECT_EQ(set.counts[0], 5u);
    EXPECT_EQ(set.counts[1], 3u);
    EXPECT_EQ(set.active_cycles, 500u);
    EXPECT_EQ(set.idle_cycles, 2u * 5u + 7u * 3u);
    EXPECT_EQ(set.totalCycles(), 500u + 31u);
}

TEST(MultiPointReplay, MatchesScalarPathBitExactly)
{
    // The engine contract: every registry policy at every point
    // reproduces api::evaluateProfile to the last bit, whatever the
    // number of distinct lengths.
    const auto points = somePoints();
    const auto specs = allPolicySpecs();
    for (const auto &idle : {syntheticProfile(), wideProfile(5000)}) {
        SCOPED_TRACE(std::to_string(idle.intervals.size()) +
                     " distinct lengths");
        const auto multi = replay::replayProfile(idle, points, specs);
        ASSERT_EQ(multi.size(), points.size());
        for (std::size_t t = 0; t < points.size(); ++t)
            expectBitExact(multi[t],
                           api::evaluateProfile(idle, points[t], specs));
    }
}

TEST(MultiPointReplay, DedupesPointInvariantPolicies)
{
    const auto idle = syntheticProfile();
    const auto points = api::pSweep(0.05, 1.0, 20);
    replay::MultiPointReplay engine(
        replay::IntervalSet::fromProfile(idle), points, {});
    EXPECT_EQ(engine.numPoints(), 20u);
    EXPECT_EQ(engine.numPolicies(), 4u);
    // max-sleep/always-active/no-overhead collapse to one unit each;
    // gradual varies only through its (colliding) slice count.
    EXPECT_LT(engine.numUnits(), 20u);
    EXPECT_GE(engine.numUnits(), 3u + 1u);
}

TEST(MultiPointReplay, PooledReplayIsThreadCountInvariant)
{
    // 34 points fill more than one Adaptive group at every vector
    // width; each group's task replays the whole stream into its own
    // accumulators, so no pool size can change a bit.
    const auto idle = syntheticProfile();
    const auto points = api::pSweep(0.05, 1.0, 34);
    const auto specs = allPolicySpecs();

    std::vector<std::vector<sleep::PolicyResult>> scalar;
    for (const auto &mp : points)
        scalar.push_back(api::evaluateProfile(idle, mp, specs));
    for (unsigned threads : {1u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        replay::MultiPointReplay engine(
            replay::IntervalSet::fromProfile(idle), points, specs);
        api::detail::ThreadPool pool(threads);
        pool.run(engine.numTasks(),
                 [&](std::size_t i) { engine.runTask(i); });
        const auto results = engine.finalize();
        for (std::size_t t = 0; t < points.size(); ++t)
            expectBitExact(results[t], scalar[t]);
    }
}

TEST(MultiPointReplay, EmptyProfileDoesNotDivide)
{
    // A cell with no idle intervals at all (and no cycles): result
    // normalization must not divide by zero.
    harness::IdleProfile empty;
    const auto points = api::pSweep(0.05, 0.5, 3);

    const auto multi = replay::replayProfile(empty, points, {});
    ASSERT_EQ(multi.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t) {
        expectBitExact(multi[t],
                       api::evaluateProfile(empty, points[t]));
        for (const auto &r : multi[t]) {
            EXPECT_EQ(r.energy, 0.0);
            EXPECT_EQ(r.relative_to_base, 0.0);
            EXPECT_TRUE(std::isfinite(r.leakage_fraction));
        }
    }
}

TEST(MultiPointReplay, ActiveOnlyProfile)
{
    harness::IdleProfile idle;
    idle.addRun(true, 4096);
    const auto points = api::pSweep(0.05, 0.5, 2);
    const auto multi = replay::replayProfile(idle, points, {});
    for (std::size_t t = 0; t < points.size(); ++t)
        expectBitExact(multi[t],
                       api::evaluateProfile(idle, points[t]));
}

TEST(MultiPointReplay, SinglePointMatchesScalar)
{
    // The --steps 1 shape: one technology point must behave exactly
    // like one scalar evaluation.
    const auto idle = syntheticProfile();
    const std::vector<ModelParams> one = {api::analysisPoint(0.05)};
    const auto multi = replay::replayProfile(idle, one);
    ASSERT_EQ(multi.size(), 1u);
    expectBitExact(multi[0], api::evaluateProfile(idle, one[0]));
}

TEST(SweepRunner, SingleStepSweepRuns)
{
    // Regression: `lsim sweep --steps 1` (single technology point)
    // through the engine-backed phase 2.
    api::SweepConfig cfg;
    cfg.workloads = {"gcc"};
    cfg.technologies = api::pSweep(0.05, 1.0, 1);
    cfg.insts = 20'000;
    const auto result = api::SweepRunner(cfg).run();
    ASSERT_EQ(result.cells.size(), 1u);
    ASSERT_EQ(result.cells[0].policies.size(), 4u);
    EXPECT_GT(result.cells[0].policies[0].energy, 0.0);
}

TEST(SweepRunner, CellsMatchTheScalarReferenceBitForBit)
{
    // Every cell of a sweep, history-dependent adaptive included,
    // equals one api::evaluateProfile walk at its point.
    api::SweepConfig cfg;
    cfg.workloads = {"gcc", "mst"};
    cfg.technologies = api::pSweep(0.05, 1.0, 5);
    cfg.insts = 20'000;
    cfg.policies = {"max-sleep", "gradual", "timeout", "adaptive",
                    "no-overhead"};

    const auto result = api::SweepRunner(cfg).run();
    ASSERT_EQ(result.cells.size(), 2u * 5u);
    for (std::size_t w = 0; w < cfg.workloads.size(); ++w)
        for (std::size_t t = 0; t < cfg.technologies.size(); ++t)
            expectBitExact(result.cell(w, t).policies,
                           api::evaluateProfile(result.sims[w].idle,
                                                cfg.technologies[t],
                                                cfg.policies));
}

TEST(MultiPointReplay, AdaptiveIdlesUncontrolledAtInfiniteBreakeven)
{
    // At p = 0 (or alpha = 1) sleep never pays off: the breakeven is
    // infinite, no finite prediction reaches it, and adaptive must
    // account exactly like always-active on the engine and on the
    // scalar path (it used to sleep on every interval, like
    // max-sleep).
    const std::vector<ModelParams> points = {api::analysisPoint(0.0),
                                             api::analysisPoint(0.3, 1.0)};
    const std::vector<std::string> specs = {"always-active", "adaptive",
                                            "adaptive:1"};
    const auto engine =
        replay::replayProfile(syntheticProfile(), points, specs);
    for (std::size_t t = 0; t < points.size(); ++t) {
        const auto scalar =
            api::evaluateProfile(syntheticProfile(), points[t], specs);
        for (const auto *at_point : {&engine[t], &scalar}) {
            SCOPED_TRACE(at_point == &scalar ? "scalar" : "engine");
            const sleep::PolicyResult &always = (*at_point)[0];
            for (std::size_t k = 1; k < specs.size(); ++k) {
                SCOPED_TRACE(specs[k]);
                EXPECT_EQ((*at_point)[k].counts.unctrl_idle,
                          always.counts.unctrl_idle);
                EXPECT_EQ((*at_point)[k].counts.sleep, 0.0);
                EXPECT_EQ((*at_point)[k].counts.transitions, 0.0);
                EXPECT_EQ((*at_point)[k].energy, always.energy);
            }
        }
    }
}

TEST(ReplayDriver, StageHistogramsCountOncePerRun)
{
    // The driver times build, run and finalize on the process-wide
    // registry, which other tests share: compare deltas.
    const char *const names[] = {"replay.build_ms", "replay.run_ms",
                                 "replay.finalize_ms"};
    std::uint64_t before[3];
    for (std::size_t i = 0; i < 3; ++i)
        before[i] = obs::histogram(names[i]).count();

    api::SweepResult result;
    result.workloads = {"synthetic"};
    result.technologies = api::pSweep(0.05, 1.0, 3);
    result.policy_keys = {"max-sleep", "adaptive"};
    harness::WorkloadSim sim;
    sim.name = "synthetic";
    sim.idle = syntheticProfile();
    result.sims.push_back(std::move(sim));
    result.cells.resize(result.technologies.size());
    for (std::uint64_t run = 1; run <= 2; ++run) {
        api::detail::ReplayDriver driver;
        driver.add(result);
        driver.run(1);
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_EQ(obs::histogram(names[i]).count(), before[i] + run)
                << names[i];
    }
}

TEST(Session, MultiPointEvaluationMatchesSinglePoint)
{
    const auto session = api::Experiment::builder()
                             .workload("gcc")
                             .insts(20'000)
                             .policies({"max-sleep", "gradual",
                                        "oracle", "no-overhead"})
                             .session();
    const auto points = somePoints();
    const auto multi = session.policiesAt(points);
    ASSERT_EQ(multi.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t)
        expectBitExact(multi[t], session.policiesAt(points[t]));
}

} // namespace
