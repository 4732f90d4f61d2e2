/**
 * @file
 * Lightweight statistics primitives: scalar counters, running
 * mean/variance, and the power-of-two interval histogram used for the
 * paper's Figure 7 idle-interval distributions.
 */

#ifndef LSIM_COMMON_STATS_HH
#define LSIM_COMMON_STATS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace lsim::stats
{

/**
 * Running scalar statistic: count, sum, min, max, mean and variance
 * via Welford's algorithm.
 */
class Scalar
{
  public:
    /** Accumulate one sample. */
    void sample(double value);

    /** Accumulate @p n identical samples of @p value. */
    void sampleN(double value, std::uint64_t n);

    /** Merge another scalar's samples into this one. */
    void merge(const Scalar &other);

    /** Reset to the empty state. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Population variance of the samples seen so far. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Histogram over power-of-two buckets [1,2), [2,4), ... with an
 * overflow clamp bucket, matching the presentation of Figure 7 where
 * idle intervals longer than the clamp accumulate at the last marker.
 *
 * Bucket i covers values in [2^i, 2^(i+1)) except the final bucket
 * which accumulates everything >= clamp. Values of zero are ignored
 * (an idle interval has length >= 1 by construction).
 */
class Log2Histogram
{
  public:
    /**
     * @param clamp_value Values >= this accumulate in the final bucket.
     * Must be a power of two.
     */
    explicit Log2Histogram(std::uint64_t clamp_value = 8192);

    /** Add @p weight at @p value (weight defaults to the value itself
     * when accumulating "total cycles spent in intervals of this
     * size"; callers choose). */
    void sample(std::uint64_t value, double weight = 1.0);

    /** Number of buckets including the clamp bucket. */
    std::size_t numBuckets() const { return weights_.size(); }

    /** Lower bound of bucket @p i (2^i). */
    std::uint64_t bucketLow(std::size_t i) const;

    /** Accumulated weight in bucket @p i. */
    double bucketWeight(std::size_t i) const { return weights_[i]; }

    /** Sum of all bucket weights. */
    double totalWeight() const;

    /** Number of sample() calls that landed in any bucket. */
    std::uint64_t totalCount() const { return count_; }

    /** Merge another histogram with the same clamp. */
    void merge(const Log2Histogram &other);

    /**
     * Reconstruct a histogram from raw bucket state (the
     * deserialization path of the profile store). @p weights must
     * have exactly the bucket count implied by @p clamp_value;
     * fatal() otherwise.
     */
    static Log2Histogram fromBuckets(std::uint64_t clamp_value,
                                     std::vector<double> weights,
                                     std::uint64_t count);

    /** Normalize a copy so bucket weights sum to 1 (no-op if empty). */
    Log2Histogram normalized() const;

    /** Reset all buckets. */
    void reset();

    std::uint64_t clampValue() const { return clamp_; }

  private:
    std::uint64_t clamp_;
    std::vector<double> weights_;
    std::uint64_t count_ = 0;
};

/** @return floor(log2(v)) for v >= 1. */
inline int
floorLog2(std::uint64_t v)
{
    if (v == 0)
        panic("floorLog2(0) is undefined");
    return 63 - std::countl_zero(v);
}

// The sample methods are defined here so that the simulator's idle
// recorders inline them.

inline void
Scalar::sample(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

inline void
Log2Histogram::sample(std::uint64_t value, double weight)
{
    if (value == 0)
        return;
    ++count_;
    std::size_t idx;
    if (value >= clamp_)
        idx = weights_.size() - 1;
    else
        idx = static_cast<std::size_t>(floorLog2(value));
    weights_[idx] += weight;
}

} // namespace lsim::stats

#endif // LSIM_COMMON_STATS_HH
