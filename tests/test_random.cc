/**
 * @file
 * Unit tests for the deterministic PRNG and its distribution
 * samplers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/random.hh"

namespace
{

using lsim::GeometricSampler;
using lsim::Rng;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, BelowBounds)
{
    Rng r(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(11);
    bool seen[5] = {};
    for (int i = 0; i < 1000; ++i)
        seen[r.below(5)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, BetweenInclusive)
{
    Rng r(13);
    bool lo = false, hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        lo = lo || v == -3;
        hi = hi || v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

class GeometricSamplerTest : public ::testing::TestWithParam<double>
{
};

TEST_P(GeometricSamplerTest, MeanMatchesTheory)
{
    const double p = GetParam();
    const GeometricSampler geo(p);
    Rng r(23);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const auto v = geo.draw(r);
        ASSERT_GE(v, 1u);
        sum += static_cast<double>(v);
    }
    // Mean of a geometric (trials to first success) is 1/p.
    EXPECT_NEAR(sum / n, 1.0 / p, 0.05 / p);
}

INSTANTIATE_TEST_SUITE_P(Probs, GeometricSamplerTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.9));

/** The inversion formula, with log1p(-p) recomputed on every draw. */
std::uint64_t
referenceGeometric(Rng &r, double p)
{
    const double val =
        std::ceil(std::log(1.0 - r.uniform()) / std::log1p(-p));
    return val < 1.0 ? 1 : static_cast<std::uint64_t>(val);
}

TEST(GeometricSampler, MatchesThePerDrawFormulaBitForBit)
{
    for (const double p : {1e-9, 0.01, 0.13, 0.5, 0.999999}) {
        const GeometricSampler geo(p);
        Rng sampled(31), reference(31);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(geo.draw(sampled), referenceGeometric(reference, p))
                << "p=" << p << " draw " << i;
        // Both generators consumed the same randomness.
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(sampled.next(), reference.next()) << "p=" << p;
    }
}

TEST(GeometricSampler, EdgeProbabilitiesReturnOneAndDrawNothing)
{
    for (const double p : {0.0, -0.5, 1.0, 1.5}) {
        const GeometricSampler geo(p);
        Rng drawn(29), untouched(29);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(geo.draw(drawn), 1u) << "p=" << p;
        EXPECT_EQ(drawn.next(), untouched.next()) << "p=" << p;
    }
}

} // namespace
