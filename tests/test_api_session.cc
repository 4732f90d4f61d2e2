/**
 * @file
 * Unit tests for the api:: experiment facade: builder defaults,
 * equivalence with the scalar reference (api::evaluateProfile), and
 * SweepRunner validation and determinism across thread counts.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/experiment.hh"
#include "api/sweep.hh"
#include "harness/experiment.hh"
#include "sleep/policy_registry.hh"
#include "trace/profile.hh"

namespace
{

using lsim::energy::ModelParams;
using namespace lsim::api;

ModelParams
params(double p = 0.05, double alpha = 0.5)
{
    ModelParams mp;
    mp.p = p;
    mp.alpha = alpha;
    mp.k = 0.001;
    mp.s = 0.01;
    return mp;
}

constexpr std::uint64_t kInsts = 30000;

void
expectSameResults(const std::vector<lsim::sleep::PolicyResult> &a,
                  const std::vector<lsim::sleep::PolicyResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        // Bit-exact: both sides must run the identical computation.
        EXPECT_EQ(a[i].energy, b[i].energy);
        EXPECT_EQ(a[i].relative_to_base, b[i].relative_to_base);
        EXPECT_EQ(a[i].leakage_fraction, b[i].leakage_fraction);
        EXPECT_EQ(a[i].counts.active, b[i].counts.active);
        EXPECT_EQ(a[i].counts.sleep, b[i].counts.sleep);
        EXPECT_EQ(a[i].counts.transitions, b[i].counts.transitions);
    }
}

TEST(ExperimentBuilder, DefaultsMatchThePaperSetup)
{
    const auto result = Experiment::builder()
                            .workload("gcc")
                            .insts(kInsts)
                            .run();
    // Default FU count is the profile's Table 3 value; default
    // technology is the paper's analysis point; default policies
    // are the paper's four.
    const auto &profile = lsim::trace::profileByName("gcc");
    EXPECT_EQ(result.sim.num_fus, profile.paper_fus);
    EXPECT_EQ(result.technology.p, 0.05);
    EXPECT_EQ(result.technology.alpha, 0.5);
    EXPECT_EQ(result.technology.k, 0.001);
    EXPECT_EQ(result.technology.s, 0.01);
    ASSERT_EQ(result.policies.size(), 4u);
    EXPECT_EQ(result.policies[0].name, "MaxSleep");
    EXPECT_EQ(result.policies[3].name, "NoOverhead");
    EXPECT_EQ(result.policy_keys,
              lsim::sleep::PolicyRegistry::paperSpecs());
    EXPECT_FALSE(result.fu_selection.has_value());
}

TEST(ExperimentBuilder, MatchesTheFreeFunctionPath)
{
    const auto facade = Experiment::builder()
                            .workload("mcf")
                            .insts(kInsts)
                            .technology(0.3)
                            .run();
    const auto &profile = lsim::trace::profileByName("mcf");
    const auto ws = lsim::harness::simulateWorkload(
        profile, profile.paper_fus, kInsts);
    const auto reference = evaluateProfile(ws.idle, params(0.3));
    EXPECT_EQ(facade.sim.sim.cycles, ws.sim.cycles);
    EXPECT_EQ(facade.sim.sim.ipc, ws.sim.ipc);
    expectSameResults(facade.policies, reference);
}

TEST(ExperimentBuilder, AutoSelectDerivesTheFuCount)
{
    const auto session = Experiment::builder()
                             .workload("mcf")
                             .insts(kInsts)
                             .fus(auto_select)
                             .session();
    ASSERT_TRUE(session.fuSelection().has_value());
    const auto reference = lsim::harness::selectFuCount(
        lsim::trace::profileByName("mcf"), kInsts);
    EXPECT_EQ(session.fuSelection()->chosen, reference.chosen);
    EXPECT_EQ(session.sim().num_fus, reference.chosen);
}

TEST(ExperimentBuilder, UnknownNamesThrowBeforeSimulating)
{
    EXPECT_THROW(Experiment::builder().run(), std::invalid_argument);
    EXPECT_THROW(
        Experiment::builder().workload("nonesuch").session(),
        std::invalid_argument);
    EXPECT_THROW(Experiment::builder()
                     .workload("gcc")
                     .policies({"bogus"})
                     .session(),
                 std::invalid_argument);
}

TEST(Session, EvaluateReplaysWithoutResimulating)
{
    const auto session = Experiment::builder()
                             .workload("gcc")
                             .insts(kInsts)
                             .session();
    const auto at_low = session.evaluate(0.05);
    const auto at_high = session.evaluate(0.5);
    // Same simulation object underneath...
    EXPECT_EQ(at_low.sim.sim.cycles, at_high.sim.sim.cycles);
    // ...and each evaluation matches the scalar reference.
    expectSameResults(at_low.policies,
                      evaluateProfile(session.sim().idle, params(0.05)));
    expectSameResults(at_high.policies,
                      evaluateProfile(session.sim().idle, params(0.5)));
}

TEST(RunResult, PolicyLookupAndCsv)
{
    const auto result = Experiment::builder()
                            .workload("gcc")
                            .insts(kInsts)
                            .policies({"max-sleep", "timeout:64"})
                            .run();
    EXPECT_EQ(result.policy("max-sleep").name, "MaxSleep");
    EXPECT_EQ(result.policy("Timeout(64)").name, "Timeout(64)");
    EXPECT_THROW(result.policy("gradual"), std::invalid_argument);

    const std::string csv = result.toCsv();
    EXPECT_NE(csv.find("benchmark,policy_key,policy"),
              std::string::npos);
    EXPECT_NE(csv.find("gcc,timeout:64,Timeout(64)"),
              std::string::npos);
}

TEST(PSweep, GridIsInclusiveAndEvenlySpaced)
{
    const auto points = pSweep(0.05, 1.0, 20);
    ASSERT_EQ(points.size(), 20u);
    EXPECT_DOUBLE_EQ(points.front().p, 0.05);
    EXPECT_DOUBLE_EQ(points.back().p, 1.0);
    EXPECT_NEAR(points[1].p - points[0].p, 0.05, 1e-12);
    EXPECT_THROW(pSweep(0.1, 1.0, 0), std::invalid_argument);
}

TEST(SweepRunner, RejectsBadConfigsEagerly)
{
    SweepConfig no_points;
    EXPECT_THROW(SweepRunner{no_points}, std::invalid_argument);

    SweepConfig bad_workload;
    bad_workload.technologies = pSweep(0.05, 0.5, 2);
    bad_workload.workloads = {"gcc", "nonesuch"};
    EXPECT_THROW(SweepRunner{bad_workload}, std::invalid_argument);

    SweepConfig bad_policy;
    bad_policy.technologies = pSweep(0.05, 0.5, 2);
    bad_policy.policies = {"max-sleep", "bogus"};
    EXPECT_THROW(SweepRunner{bad_policy}, std::invalid_argument);

    // Only the last point leaves [0, 1]: every point is checked, not
    // just the first.
    SweepConfig bad_point;
    bad_point.workloads = {"gcc", "mst"};
    bad_point.technologies = pSweep(0.5, 1.5, 3);
    EXPECT_THROW(SweepRunner{bad_point}, std::invalid_argument);

    SweepConfig bad_fus;
    bad_fus.workloads = {"gcc"};
    bad_fus.technologies = pSweep(0.05, 0.5, 2);
    bad_fus.fus = 9;
    EXPECT_THROW(SweepRunner{bad_fus}, std::invalid_argument);
}

TEST(SweepRunner, ParallelSweepMatchesSingleThreadedExactly)
{
    // The acceptance check: a 16-point p-sweep on 4 threads must be
    // bit-identical to the single-threaded reference.
    SweepConfig cfg;
    cfg.workloads = {"gcc", "mcf"};
    cfg.technologies = pSweep(0.05, 0.8, 16);
    cfg.insts = kInsts;

    SweepConfig single = cfg;
    single.threads = 1;
    SweepConfig parallel = cfg;
    parallel.threads = 4;

    const auto ref = SweepRunner(single).run();
    const auto par = SweepRunner(parallel).run();

    ASSERT_EQ(ref.cells.size(), 2u * 16u);
    ASSERT_EQ(par.cells.size(), ref.cells.size());
    for (std::size_t w = 0; w < 2; ++w) {
        EXPECT_EQ(ref.sims[w].sim.cycles, par.sims[w].sim.cycles);
        EXPECT_EQ(ref.sims[w].idle.intervals,
                  par.sims[w].idle.intervals);
    }
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
        EXPECT_EQ(ref.cells[i].workload, par.cells[i].workload);
        EXPECT_EQ(ref.cells[i].technology, par.cells[i].technology);
        expectSameResults(ref.cells[i].policies,
                          par.cells[i].policies);
    }
}

TEST(SweepRunner, CellsMatchSessionEvaluations)
{
    SweepConfig cfg;
    cfg.workloads = {"gcc"};
    cfg.technologies = pSweep(0.1, 0.5, 3);
    cfg.insts = kInsts;
    cfg.threads = 2;
    const auto sweep = SweepRunner(cfg).run();

    const auto session = Experiment::builder()
                             .workload("gcc")
                             .insts(kInsts)
                             .session();
    for (std::size_t t = 0; t < cfg.technologies.size(); ++t)
        expectSameResults(
            sweep.cell(0, t).policies,
            session.evaluate(cfg.technologies[t]).policies);
}

} // namespace
