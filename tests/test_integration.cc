/**
 * @file
 * End-to-end integration tests reproducing the paper's qualitative
 * claims on real simulator output (scaled-down instruction windows).
 */

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "api/sweep.hh"
#include "energy/breakeven.hh"
#include "harness/benchmarks.hh"
#include "harness/experiment.hh"
#include "sleep/policy_registry.hh"
#include "trace/profile.hh"

namespace
{

using lsim::api::evaluateProfile;
using lsim::energy::ModelParams;
using lsim::harness::WorkloadSim;
using lsim::harness::simulateWorkload;
using lsim::sleep::PolicyResult;
using lsim::trace::profileByName;

ModelParams
params(double p, double alpha = 0.5)
{
    ModelParams mp;
    mp.p = p;
    mp.alpha = alpha;
    mp.k = 0.001;
    mp.s = 0.01;
    return mp;
}

const PolicyResult &
find(const std::vector<PolicyResult> &results, const char *name)
{
    for (const auto &r : results)
        if (r.name == name)
            return r;
    throw std::runtime_error("missing policy");
}

class IntegrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        lsim::setInformEnabled(false);
        // Simulate once; evaluate at many technology points.
        gzip_ = new WorkloadSim(simulateWorkload(
            profileByName("gzip"), 4, 150000));
        mcf_ = new WorkloadSim(simulateWorkload(
            profileByName("mcf"), 2, 100000));
    }

    static void
    TearDownTestSuite()
    {
        delete gzip_;
        delete mcf_;
        gzip_ = nullptr;
        mcf_ = nullptr;
    }

    static WorkloadSim *gzip_;
    static WorkloadSim *mcf_;
};

WorkloadSim *IntegrationTest::gzip_ = nullptr;
WorkloadSim *IntegrationTest::mcf_ = nullptr;

TEST_F(IntegrationTest, LowLeakageFavorsAlwaysActive)
{
    // Figure 8a: at p = 0.05, MaxSleep uses more energy than
    // AlwaysActive (8.3% more on average in the paper).
    for (const auto *ws : {gzip_, mcf_}) {
        const auto res = evaluateProfile(ws->idle, params(0.05));
        EXPECT_GT(find(res, "MaxSleep").energy,
                  find(res, "AlwaysActive").energy)
            << ws->name;
    }
}

TEST_F(IntegrationTest, HighLeakageFavorsMaxSleep)
{
    // Figure 8b: at p = 0.50, MaxSleep always beats AlwaysActive.
    for (const auto *ws : {gzip_, mcf_}) {
        const auto res = evaluateProfile(ws->idle, params(0.5));
        EXPECT_LT(find(res, "MaxSleep").energy,
                  find(res, "AlwaysActive").energy)
            << ws->name;
    }
}

TEST_F(IntegrationTest, NoOverheadIsGlobalLowerBound)
{
    for (double p : {0.05, 0.2, 0.5, 1.0}) {
        const auto res = evaluateProfile(gzip_->idle, params(p));
        const double no = find(res, "NoOverhead").energy;
        for (const auto &r : res)
            EXPECT_GE(r.energy, no - 1e-9) << r.name << " p=" << p;
    }
}

TEST_F(IntegrationTest, GradualSleepAvoidsBothExtremes)
{
    // Figure 9a: GradualSleep tracks the better of the two bounding
    // policies across the whole technology range (within a small
    // margin).
    for (double p = 0.1; p <= 1.0; p += 0.1) {
        const auto res = evaluateProfile(gzip_->idle, params(p));
        const double gs = find(res, "GradualSleep").energy;
        const double best = std::min(
            find(res, "MaxSleep").energy,
            find(res, "AlwaysActive").energy);
        const double worst = std::max(
            find(res, "MaxSleep").energy,
            find(res, "AlwaysActive").energy);
        EXPECT_LT(gs, worst) << "p=" << p;
        EXPECT_LT(gs, 1.35 * best) << "p=" << p;
    }
}

TEST_F(IntegrationTest, LeakageFractionGrowsWithTechnology)
{
    // Figure 9b: the leakage share of total energy rises steeply
    // with p for AlwaysActive (13% at p=0.05 to 60% at p=0.5 in the
    // paper).
    const auto lo = evaluateProfile(mcf_->idle, params(0.05));
    const auto hi = evaluateProfile(mcf_->idle, params(0.5));
    const double f_lo = find(lo, "AlwaysActive").leakage_fraction;
    const double f_hi = find(hi, "AlwaysActive").leakage_fraction;
    EXPECT_LT(f_lo, 0.45);
    EXPECT_GT(f_hi, 0.4);
    EXPECT_GT(f_hi, 2.0 * f_lo);
}

TEST_F(IntegrationTest, IdleFractionInPaperBallpark)
{
    // The paper reports ALUs idle ~46.8% of the time on average;
    // individual benchmarks range widely. Memory-bound mcf idles
    // far more than ILP-rich gzip at its paper FU count.
    EXPECT_GT(mcf_->idle.idleFraction(), gzip_->idle.idleFraction());
    EXPECT_GT(mcf_->idle.idleFraction(), 0.5);
    EXPECT_LT(gzip_->idle.idleFraction(), 0.7);
}

TEST_F(IntegrationTest, MostIdleIntervalsAreShort)
{
    // Figure 7: "nearly all of the idle intervals are shorter than
    // 128 cycles".
    const auto &h = gzip_->idle_hist;
    double below_128 = 0.0, total = 0.0;
    for (std::size_t b = 0; b < h.numBuckets(); ++b) {
        total += h.bucketWeight(b);
        if (h.bucketLow(b) < 128)
            below_128 += h.bucketWeight(b);
    }
    EXPECT_GT(below_128 / total, 0.80);
}

TEST_F(IntegrationTest, AlphaShiftsPolicyGaps)
{
    // Section 5: at lower alpha the MaxSleep-vs-AlwaysActive
    // difference grows (more nodes to discharge per transition).
    const auto lo_alpha =
        evaluateProfile(gzip_->idle, params(0.5, 0.25));
    const auto hi_alpha =
        evaluateProfile(gzip_->idle, params(0.5, 0.75));
    const double gap_lo =
        find(lo_alpha, "MaxSleep").relative_to_base -
        find(lo_alpha, "NoOverhead").relative_to_base;
    const double gap_hi =
        find(hi_alpha, "MaxSleep").relative_to_base -
        find(hi_alpha, "NoOverhead").relative_to_base;
    EXPECT_GT(gap_lo, gap_hi);
}

TEST(SuiteHarness, RunSuiteAggregation)
{
    lsim::api::SweepConfig cfg;
    cfg.technologies = {lsim::api::analysisPoint(0.5)};
    cfg.insts = 20000;
    const auto sweep = lsim::api::SweepRunner(cfg).run();
    const lsim::harness::SuiteRun suite{sweep.sims};
    ASSERT_EQ(suite.sims.size(), 9u);
    // Paper FU counts were used.
    EXPECT_EQ(suite.byName("mcf").num_fus, 2u);
    EXPECT_EQ(suite.byName("vortex").num_fus, 4u);
    // Combined histogram totals the mean idle fraction.
    const auto hist = suite.combinedIdleHistogram();
    EXPECT_NEAR(hist.totalWeight(), suite.meanIdleFraction(), 0.02);
    EXPECT_GT(suite.meanIdleFraction(), 0.2);
    EXPECT_LT(suite.meanIdleFraction(), 0.95);
    // Policy averaging returns the four paper policies with
    // NoOverhead pinned at 1.0 by construction.
    const auto avg = sweep.averagesAt(0);
    ASSERT_EQ(avg.names.size(), 4u);
    EXPECT_NEAR(avg.rel_to_nooverhead[3], 1.0, 1e-9);
    for (double rel : avg.rel_to_nooverhead)
        EXPECT_GE(rel, 1.0 - 1e-9);
}

TEST_F(IntegrationTest, OracleBeatsAllPaperPoliciesButNoOverhead)
{
    const ModelParams mp = params(0.2);
    const auto paper = evaluateProfile(gzip_->idle, mp);
    const auto ext = evaluateProfile(
        gzip_->idle, mp, lsim::sleep::PolicyRegistry::extensionSpecs());
    const double oracle = find(ext, "Oracle").energy;
    EXPECT_LE(oracle, find(paper, "MaxSleep").energy + 1e-9);
    EXPECT_LE(oracle, find(paper, "AlwaysActive").energy + 1e-9);
    EXPECT_GE(oracle, find(paper, "NoOverhead").energy - 1e-9);
}

} // namespace
