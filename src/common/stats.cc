#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace lsim::stats
{

void
Scalar::sampleN(double value, std::uint64_t n)
{
    if (n == 0)
        return;
    Scalar block;
    block.count_ = n;
    block.sum_ = value * static_cast<double>(n);
    block.min_ = block.max_ = value;
    block.mean_ = value;
    block.m2_ = 0.0;
    merge(block);
}

void
Scalar::merge(const Scalar &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = n1 + n2;
    mean_ += delta * n2 / total;
    m2_ += other.m2_ + delta * delta * n1 * n2 / total;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Scalar::reset()
{
    *this = Scalar();
}

double
Scalar::variance() const
{
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double
Scalar::stddev() const
{
    return std::sqrt(variance());
}

Log2Histogram::Log2Histogram(std::uint64_t clamp_value)
    : clamp_(clamp_value)
{
    if (clamp_ == 0 || (clamp_ & (clamp_ - 1)) != 0)
        fatal("Log2Histogram clamp must be a power of two, got %llu",
              static_cast<unsigned long long>(clamp_));
    // Buckets [1,2), [2,4), ..., [clamp/2, clamp), plus clamp bucket.
    weights_.assign(static_cast<std::size_t>(floorLog2(clamp_)) + 1, 0.0);
}

std::uint64_t
Log2Histogram::bucketLow(std::size_t i) const
{
    return std::uint64_t{1} << i;
}

double
Log2Histogram::totalWeight() const
{
    double total = 0.0;
    for (double w : weights_)
        total += w;
    return total;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    if (other.clamp_ != clamp_)
        fatal("cannot merge Log2Histograms with different clamps");
    for (std::size_t i = 0; i < weights_.size(); ++i)
        weights_[i] += other.weights_[i];
    count_ += other.count_;
}

Log2Histogram
Log2Histogram::normalized() const
{
    Log2Histogram result = *this;
    const double total = totalWeight();
    if (total > 0.0) {
        for (double &w : result.weights_)
            w /= total;
    }
    return result;
}

void
Log2Histogram::reset()
{
    std::fill(weights_.begin(), weights_.end(), 0.0);
    count_ = 0;
}

Log2Histogram
Log2Histogram::fromBuckets(std::uint64_t clamp_value,
                           std::vector<double> weights,
                           std::uint64_t count)
{
    Log2Histogram out(clamp_value);
    if (weights.size() != out.weights_.size())
        fatal("Log2Histogram::fromBuckets: %zu weights for a "
              "%llu-clamp histogram (want %zu)",
              weights.size(),
              static_cast<unsigned long long>(clamp_value),
              out.weights_.size());
    out.weights_ = std::move(weights);
    out.count_ = count;
    return out;
}

} // namespace lsim::stats
