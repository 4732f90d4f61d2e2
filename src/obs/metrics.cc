#include "obs/metrics.hh"

#include <algorithm>

#include "common/files.hh"
#include "common/json.hh"
#include "obs/clock.hh"

namespace lsim
{
namespace obs
{

namespace
{

// 1-2-5 geometric ladder, ms. Keep in sync with Histogram::kBounds.
constexpr double kBucketBoundsMs[Histogram::kBounds] = {
    0.01, 0.02, 0.05, 0.1,  0.2,  0.5,   1.0,   2.0,   5.0,   10.0,
    20.0, 50.0, 100., 200., 500., 1000., 2000., 5000., 10000., 20000.,
    50000.,
};

void
atomicUpdateMin(std::atomic<double> &slot, double v)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed)) {
    }
}

void
atomicUpdateMax(std::atomic<double> &slot, double v)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

double
Histogram::boundMs(std::size_t i)
{
    return kBucketBoundsMs[i];
}

void
Histogram::observe(double ms)
{
    std::size_t i = 0;
    while (i < kBounds && ms > kBucketBoundsMs[i])
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ms, std::memory_order_relaxed);
    atomicUpdateMin(min_, ms);
    atomicUpdateMax(max_, ms);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::min() const
{
    return min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b <= i && b <= kBounds; ++b)
        cum += buckets_[b].load(std::memory_order_relaxed);
    return cum;
}

double
Histogram::percentile(double pct) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;

    // Rank of the target sample, 1-based; pct 0 maps to the first
    // sample (the observed minimum), pct 100 to the last.
    double target = pct / 100.0 * static_cast<double>(n);
    target = std::clamp(target, 1.0, static_cast<double>(n));

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBounds; ++i) {
        const std::uint64_t c =
            buckets_[i].load(std::memory_order_relaxed);
        if (static_cast<double>(cum + c) >= target && c > 0) {
            const double lo = i ? kBucketBoundsMs[i - 1] : 0.0;
            const double hi = kBucketBoundsMs[i];
            const double frac =
                (target - static_cast<double>(cum)) /
                static_cast<double>(c);
            const double v = lo + frac * (hi - lo);
            // Interpolation can't beat the actual observed range.
            return std::clamp(v, min(), max());
        }
        cum += c;
    }
    return max(); // target lies in the overflow bucket
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    MutexLock lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
MetricsRegistry::writeJson(JsonWriter &w) const
{
    MutexLock lock(mu_);
    w.beginObject();
    w.field("version", std::uint64_t(1));

    w.beginObject("counters");
    for (const auto &[name, c] : counters_)
        w.field(name, c->value());
    w.endObject();

    w.beginObject("gauges");
    for (const auto &[name, g] : gauges_)
        w.field(name, static_cast<double>(g->value()));
    w.endObject();

    w.beginObject("histograms");
    for (const auto &[name, h] : histograms_) {
        w.beginObject(name);
        const std::uint64_t n = h->count();
        w.field("count", n);
        w.field("sum", n ? h->sum() : 0.0);
        w.field("min", n ? h->min() : 0.0);
        w.field("max", n ? h->max() : 0.0);
        w.field("p50", h->percentile(50.0));
        w.field("p90", h->percentile(90.0));
        w.field("p99", h->percentile(99.0));
        w.beginArray("buckets");
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < Histogram::kBounds; ++i) {
            cum = h->bucketCount(i);
            w.beginObject();
            w.field("le", Histogram::boundMs(i));
            w.field("count", cum);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
}

std::string
MetricsRegistry::dumpJson() const
{
    std::string out;
    JsonWriter w(out);
    writeJson(w);
    out += '\n';
    return out;
}

bool
MetricsRegistry::exportFile(const std::string &path) const
{
    return atomicWriteFile(path, dumpJson());
}

void
MetricsRegistry::reset()
{
    MutexLock lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

Counter &
counter(const std::string &name)
{
    return MetricsRegistry::instance().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return MetricsRegistry::instance().gauge(name);
}

Histogram &
histogram(const std::string &name)
{
    return MetricsRegistry::instance().histogram(name);
}

ScopedTimerMs::ScopedTimerMs(Histogram &h)
    : h_(h), start_us_(monotonicMicros())
{
}

double
ScopedTimerMs::elapsedMs() const
{
    return static_cast<double>(monotonicMicros() - start_us_) /
        1000.0;
}

ScopedTimerMs::~ScopedTimerMs()
{
    h_.observe(elapsedMs());
}

} // namespace obs
} // namespace lsim
