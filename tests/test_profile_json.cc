/**
 * @file
 * Unit tests for custom-workload JSON ingestion and the hardened
 * WorkloadProfile validation behind it: every error must name the
 * offending field, and hostile values (NaN, infinities, sums over
 * 1) must be rejected rather than silently simulated.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "api/experiment.hh"
#include "trace/profile.hh"
#include "trace/profile_json.hh"

namespace
{

using lsim::trace::WorkloadProfile;
using lsim::trace::workloadProfileFromJsonText;

/** EXPECT that parsing @p text throws and the message mentions
 * @p needle (typically the offending field's name). */
void
expectRejects(const std::string &text, const std::string &needle)
{
    try {
        (void)workloadProfileFromJsonText(text);
        FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "error '" << err.what() << "' does not mention '"
            << needle << "'";
    }
}

TEST(ProfileJson, ParsesACompleteProfile)
{
    const auto p = workloadProfileFromJsonText(R"({
        "name": "webserver", "suite": "custom",
        "frac_load": 0.30, "frac_store": 0.12,
        "frac_branch": 0.18, "frac_mult": 0.01, "frac_fp": 0.02,
        "dep_density": 0.45, "dep_distance_p": 0.2,
        "num_blocks": 4000, "branch_bias_strong": 0.9,
        "noisy_taken_prob": 0.4, "call_fraction": 0.05,
        "working_set": 8388608, "local_frac": 0.5,
        "stream_frac": 0.04, "irregular_frac": 0.08,
        "strong_taken_bias": 0.96, "mean_loop_iters": 30,
        "paper_fus": 3, "window": "custom"})");
    EXPECT_EQ(p.name, "webserver");
    EXPECT_EQ(p.suite, "custom");
    EXPECT_DOUBLE_EQ(p.frac_load, 0.30);
    EXPECT_DOUBLE_EQ(p.dep_distance_p, 0.2);
    EXPECT_EQ(p.num_blocks, 4000u);
    EXPECT_EQ(p.working_set, 8388608u);
    EXPECT_EQ(p.paper_fus, 3u);
    EXPECT_TRUE(p.validationError().empty());
}

TEST(ProfileJson, DefaultsApplyToOmittedFields)
{
    const auto p =
        workloadProfileFromJsonText(R"({"name": "minimal"})");
    const WorkloadProfile defaults;
    EXPECT_DOUBLE_EQ(p.frac_load, defaults.frac_load);
    EXPECT_EQ(p.num_blocks, defaults.num_blocks);
    EXPECT_EQ(p.paper_fus, defaults.paper_fus);
}

TEST(ProfileJson, RequiresAName)
{
    expectRejects(R"({"frac_load": 0.3})", "name");
    expectRejects(R"({"name": ""})", "name");
}

TEST(ProfileJson, RejectsUnknownFieldsByName)
{
    expectRejects(R"({"name": "x", "frac_laod": 0.3})",
                  "frac_laod");
    expectRejects(R"({"name": "x", "threads": 4})", "threads");
}

TEST(ProfileJson, RejectsWrongTypesNamingTheField)
{
    expectRejects(R"({"name": "x", "frac_load": "lots"})",
                  "frac_load");
    expectRejects(R"({"name": "x", "num_blocks": 3.5})",
                  "num_blocks");
    expectRejects(R"({"name": "x", "num_blocks": -5})",
                  "num_blocks");
    expectRejects(R"({"name": 42})", "name");
}

TEST(ProfileJson, RejectsOutOfRangeValuesNamingTheField)
{
    expectRejects(R"({"name": "x", "frac_load": 1.5})",
                  "frac_load");
    expectRejects(R"({"name": "x", "dep_density": -0.1})",
                  "dep_density");
    expectRejects(R"({"name": "x", "dep_distance_p": 0})",
                  "dep_distance_p");
    expectRejects(R"({"name": "x", "strong_taken_bias": 0.4})",
                  "strong_taken_bias");
    expectRejects(R"({"name": "x", "working_set": 16})",
                  "working_set");
    expectRejects(R"({"name": "x", "num_blocks": 2})",
                  "num_blocks");
    expectRejects(R"({"name": "x", "paper_fus": 9})", "paper_fus");
    expectRejects(R"({"name": "x", "num_blocks": 4000000000})",
                  "num_blocks 4000000000 / frac_branch");
}

TEST(ProfileJson, RejectsFractionSumsOverOne)
{
    expectRejects(
        R"({"name": "x", "frac_load": 0.6, "frac_store": 0.5})",
        "sums to");
    expectRejects(
        R"({"name": "x", "local_frac": 0.6, "stream_frac": 0.3,
            "irregular_frac": 0.2})",
        "memory site fractions");
}

TEST(ProfileJson, ParseErrorsCarryAPosition)
{
    try {
        (void)workloadProfileFromJsonText("{\"name\": \n!}");
        FAIL() << "accepted malformed JSON";
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("2:"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Validation, NonFiniteValuesAreRejected)
{
    WorkloadProfile p;
    p.name = "hostile";
    p.frac_load = std::nan("");
    EXPECT_NE(p.validationError().find("frac_load"),
              std::string::npos);

    p = WorkloadProfile{};
    p.mean_loop_iters = std::numeric_limits<double>::infinity();
    EXPECT_NE(p.validationError().find("mean_loop_iters"),
              std::string::npos);
}

TEST(Validation, Table3ProfilesAreAllValid)
{
    for (const auto &p : lsim::trace::table3Profiles())
        EXPECT_EQ(p.validationError(), "") << p.name;
}

TEST(ProfileJson, LoadedProfileRunsThroughTheFacade)
{
    const auto profile = workloadProfileFromJsonText(R"({
        "name": "tiny", "num_blocks": 64, "working_set": 65536,
        "mean_loop_iters": 10})");
    const auto result = lsim::api::Experiment::builder()
                            .profile(profile)
                            .insts(5000)
                            .technology(0.1)
                            .run();
    EXPECT_EQ(result.sim.name, "tiny");
    EXPECT_GT(result.sim.sim.cycles, 0u);
    ASSERT_EQ(result.policies.size(), 4u);
}

} // namespace
