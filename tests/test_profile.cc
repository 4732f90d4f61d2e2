/**
 * @file
 * Unit tests for the Table 3 workload profiles.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "trace/profile.hh"

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

using lsim::trace::WorkloadProfile;
using lsim::trace::profileByName;
using lsim::trace::table3Profiles;

TEST(Profiles, NineBenchmarksInPaperOrder)
{
    const auto &all = table3Profiles();
    ASSERT_EQ(all.size(), 9u);
    const char *expected[] = {"health", "mst", "gcc",   "gzip",
                              "mcf",    "parser", "twolf", "vortex",
                              "vpr"};
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].name, expected[i]);
}

TEST(Profiles, AllValidate)
{
    for (const auto &p : table3Profiles())
        p.validate(); // fatal() on failure
}

TEST(Profiles, Table3MetadataMatchesPaper)
{
    EXPECT_EQ(profileByName("health").paper_fus, 2u);
    EXPECT_EQ(profileByName("mst").paper_fus, 4u);
    EXPECT_EQ(profileByName("gcc").paper_fus, 2u);
    EXPECT_EQ(profileByName("gzip").paper_fus, 4u);
    EXPECT_EQ(profileByName("mcf").paper_fus, 2u);
    EXPECT_EQ(profileByName("parser").paper_fus, 4u);
    EXPECT_EQ(profileByName("twolf").paper_fus, 3u);
    EXPECT_EQ(profileByName("vortex").paper_fus, 4u);
    EXPECT_EQ(profileByName("vpr").paper_fus, 3u);

    EXPECT_NEAR(profileByName("vortex").paper_max_ipc, 2.387, 1e-9);
    EXPECT_NEAR(profileByName("mcf").paper_ipc, 0.503, 1e-9);
}

TEST(Profiles, QualitativeCharacterPreserved)
{
    // The memory-bound pair has the largest irregular footprints.
    const auto &mcf = profileByName("mcf");
    const auto &health = profileByName("health");
    const auto &vortex = profileByName("vortex");
    EXPECT_GT(mcf.working_set, vortex.working_set);
    EXPECT_GT(health.working_set, vortex.working_set);
    EXPECT_GT(mcf.irregular_frac, vortex.irregular_frac);
    // The ILP-rich pair has the most predictable control flow.
    EXPECT_GT(vortex.branch_bias_strong,
              profileByName("vpr").branch_bias_strong);
}

TEST(ProfilesReject, UnknownName)
{
    expectRejects([&] { (void)profileByName("nonexistent"); },
                  "unknown workload");
}

TEST(ProfilesReject, ValidationCatchesBadMix)
{
    WorkloadProfile p = profileByName("gcc");
    p.frac_load = 0.9;
    p.frac_store = 0.9;
    expectRejects([&] { p.validate(); }, "sums to");
}

TEST(ProfilesReject, ValidationCatchesBadMemoryFractions)
{
    WorkloadProfile p = profileByName("gcc");
    p.local_frac = 0.9;
    p.irregular_frac = 0.9;
    expectRejects([&] { p.validate(); }, "memory site fractions");
}

TEST(ProfilesReject, ValidationBoundsTheStaticProgram)
{
    // The generator builds num_blocks / frac_branch static
    // instructions before the first cycle: an oversized profile must
    // be refused, not fail allocating.
    WorkloadProfile p = profileByName("gcc");
    p.num_blocks = 4000000000u;
    expectRejects([&] { p.validate(); }, "num_blocks 4000000000");
    expectRejects([&] { p.validate(); }, "frac_branch 0.18");

    // The bound is 2^22 static instructions, inclusive.
    p.frac_branch = 0.25;
    p.num_blocks = 1u << 20;
    EXPECT_EQ(p.validationError(), "");
    p.num_blocks += 1;
    EXPECT_NE(p.validationError().find("above the 4194304 limit"),
              std::string::npos)
        << p.validationError();
}

} // namespace
