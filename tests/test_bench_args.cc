/**
 * @file
 * Unit tests for the shared bench-harness argument parsing
 * (bench/args.hh): every figure/table bench relies on these
 * "insts=<n> seed=<n>" overrides.
 */

#include <gtest/gtest.h>

#include "../bench/args.hh"

namespace
{

using lsim::bench::Args;

TEST(BenchArgs, ParsesInstsAndSeed)
{
    Args args(500'000);
    const char *argv[] = {"prog", "insts=12345", "seed=9"};
    args.parse(3, const_cast<char **>(argv));
    EXPECT_EQ(args.insts, 12345u);
    EXPECT_EQ(args.seed, 9u);
}

TEST(BenchArgs, KeepsDefaultsWithoutOverrides)
{
    Args args(2'000'000);
    const char *argv[] = {"prog"};
    args.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(args.insts, 2'000'000u);
    EXPECT_EQ(args.seed, 1u);
}

TEST(BenchArgs, IgnoresUnknownArguments)
{
    Args args(1000);
    const char *argv[] = {"prog", "bogus=7", "insts=42"};
    args.parse(3, const_cast<char **>(argv));
    EXPECT_EQ(args.insts, 42u);
    EXPECT_EQ(args.seed, 1u);
}

TEST(BenchArgs, ZeroInstsIsFatal)
{
    Args args(1000);
    const char *argv[] = {"prog", "insts=0"};
    EXPECT_DEATH(args.parse(2, const_cast<char **>(argv)),
                 "bad insts= argument");
}

} // namespace
