/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small, fast xoshiro256** generator is used rather than std::mt19937
 * so that traces are bit-reproducible across standard library
 * implementations (libstdc++/libc++ agree on mersenne twister, but
 * distributions such as std::geometric_distribution are not portable).
 * All distribution sampling is implemented here explicitly.
 */

#ifndef LSIM_COMMON_RANDOM_HH
#define LSIM_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace lsim
{

/**
 * xoshiro256** deterministic PRNG with explicit, portable
 * distribution samplers.
 */
class Rng
{
  public:
    /** Seed the generator; the same seed always yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // SplitMix64 seeding, as recommended by the xoshiro authors.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** @return next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return uniform integer in [0, bound) (bound > 0). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded sampling; the slight
        // modulo bias of the simple form is irrelevant at our bounds
        // but we reject to keep the stream unbiased anyway.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            const std::uint64_t t = (0 - bound) % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** @return true with probability @p prob (clamped to [0,1]). */
    bool
    chance(double prob)
    {
        return uniform() < prob;
    }

    /** @return integer uniform in [lo, hi] inclusive. */
    std::int64_t
    between(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Geometric samples >= 1 with a fixed success probability: the number
 * of trials up to and including the first success. log1p(-prob) is
 * computed once, at construction, rather than on every draw.
 */
class GeometricSampler
{
  public:
    /** A @p prob of 0 or less, or 1 or more, makes every draw 1
     * without consuming randomness. */
    explicit GeometricSampler(double prob)
        : degenerate_(prob >= 1.0 || prob <= 0.0),
          denom_(degenerate_ ? 0.0 : std::log1p(-prob))
    {
    }

    /** @return the next sample, drawing one uniform from @p rng. */
    std::uint64_t
    draw(Rng &rng) const
    {
        if (degenerate_)
            return 1;
        const double u = 1.0 - rng.uniform(); // in (0, 1]
        const double val = std::ceil(std::log(u) / denom_);
        return val < 1.0 ? 1 : static_cast<std::uint64_t>(val);
    }

  private:
    bool degenerate_;
    double denom_;
};

} // namespace lsim

#endif // LSIM_COMMON_RANDOM_HH
