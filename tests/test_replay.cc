/**
 * @file
 * Unit tests for the multi-point replay engine: scalar-path
 * equivalence across every registry policy, chunk-sharding
 * tolerances, thread-count determinism, and the empty/degenerate
 * cells that must not divide by zero.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

/** Reduction order may differ (sharded merges): 1e-12 relative. */
void
expectNear(const std::vector<sleep::PolicyResult> &multi,
           const std::vector<sleep::PolicyResult> &scalar)
{
    ASSERT_EQ(multi.size(), scalar.size());
    const auto near = [](double a, double b) {
        const double scale =
            std::max({1.0, std::abs(a), std::abs(b)});
        EXPECT_LE(std::abs(a - b), 1e-12 * scale);
    };
    for (std::size_t i = 0; i < multi.size(); ++i) {
        EXPECT_EQ(multi[i].name, scalar[i].name);
        near(multi[i].energy, scalar[i].energy);
        near(multi[i].relative_to_base, scalar[i].relative_to_base);
        near(multi[i].leakage_fraction, scalar[i].leakage_fraction);
        near(multi[i].counts.unctrl_idle,
             scalar[i].counts.unctrl_idle);
        near(multi[i].counts.sleep, scalar[i].counts.sleep);
        near(multi[i].counts.transitions,
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
    // The engine contract: with a single chunk, every registry
    // policy at every point reproduces api::evaluateProfile to the
    // last bit.
    const auto idle = syntheticProfile();
    const auto points = somePoints();
    const auto specs = allPolicySpecs();

    const auto multi = replay::replayProfile(idle, points, specs);
    ASSERT_EQ(multi.size(), points.size());
    for (std::size_t t = 0; t < points.size(); ++t)
        expectBitExact(multi[t],
                       api::evaluateProfile(idle, points[t], specs));
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

TEST(MultiPointReplay, ShardedChunksStayWithinTolerance)
{
    const auto idle = syntheticProfile();
    const auto points = somePoints();
    const auto specs = allPolicySpecs();

    for (std::size_t chunk : {std::size_t{1}, std::size_t{3},
                              std::size_t{5}, std::size_t{64}}) {
        replay::ReplayOptions options;
        options.chunk_intervals = chunk;
        const auto multi =
            replay::replayProfile(idle, points, specs, options);
        for (std::size_t t = 0; t < points.size(); ++t)
            expectNear(multi[t],
                       api::evaluateProfile(idle, points[t], specs));
    }
}

TEST(MultiPointReplay, ShardedReplayIsThreadCountInvariant)
{
    const auto idle = syntheticProfile();
    const auto points = somePoints();
    const auto specs = allPolicySpecs();
    replay::ReplayOptions options;
    options.chunk_intervals = 2; // force many chunks

    std::vector<std::vector<std::vector<sleep::PolicyResult>>> runs;
    for (unsigned threads : {1u, 4u, 8u}) {
        replay::MultiPointReplay engine(
            replay::IntervalSet::fromProfile(idle), points, specs,
            options);
        EXPECT_GT(engine.numChunks(), 1u);
        api::detail::ThreadPool pool(threads);
        pool.run(engine.numTasks(),
                 [&](std::size_t i) { engine.runTask(i); });
        runs.push_back(engine.finalize());
    }
    // Merges happen in chunk order, so scheduling cannot change a
    // single bit.
    for (std::size_t r = 1; r < runs.size(); ++r)
        for (std::size_t t = 0; t < points.size(); ++t)
            expectBitExact(runs[r][t], runs[0][t]);
}

TEST(MultiPointReplay, EmptyProfileDoesNotDivide)
{
    // A cell with no idle intervals at all (and no cycles): chunk
    // sharding and result normalization must not divide by zero.
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

    // Same with explicit (nonsense-sized) sharding requested.
    replay::ReplayOptions options;
    options.chunk_intervals = 1;
    const auto sharded =
        replay::replayProfile(empty, points, {}, options);
    for (std::size_t t = 0; t < points.size(); ++t)
        expectBitExact(sharded[t], multi[t]);
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

TEST(SweepRunner, ChunkedSweepStaysWithinTolerance)
{
    api::SweepConfig cfg;
    cfg.workloads = {"gcc"};
    cfg.technologies = api::pSweep(0.05, 1.0, 4);
    cfg.insts = 20'000;

    api::SweepConfig chunked = cfg;
    chunked.chunk_intervals = 3;
    chunked.threads = 4;

    const auto ref = api::SweepRunner(cfg).run();
    const auto shard = api::SweepRunner(chunked).run();
    ASSERT_EQ(ref.cells.size(), shard.cells.size());
    for (std::size_t i = 0; i < ref.cells.size(); ++i)
        expectNear(shard.cells[i].policies, ref.cells[i].policies);
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

    api::SweepConfig cfg;
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
        driver.add(result, cfg);
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
