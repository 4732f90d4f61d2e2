/**
 * @file
 * The benchmark's own statistics and load accounting: percentiles
 * with the ten-samples-beyond rule for tails, and the closed client
 * loop whose bookkeeping every run checks.
 *
 * Header-only so the self-test (perfbench --selftest) exercises
 * exactly the code the workloads use.
 */

#ifndef LSIM_PERFBENCH_STATS_HH
#define LSIM_PERFBENCH_STATS_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

namespace perfbench
{

/** Seconds elapsed since @p start on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Percentile @p pct (0..100) of @p samples by linear interpolation
 * between closest ranks (the numpy default). 0 for no samples.
 */
inline double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        pct / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

/** Samples that lie beyond percentile @p pct of @p n samples. */
inline std::size_t
samplesBeyond(double pct, std::size_t n)
{
    return static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (1.0 - pct / 100.0) +
                   1e-9));
}

/**
 * The highest tail percentile (99.9, 99 or 90) that has at least ten
 * samples beyond it among @p n; 50 when even p90 has too few.
 */
inline double
tailPercentile(std::size_t n)
{
    for (const double pct : {99.9, 99.0, 90.0})
        if (samplesBeyond(pct, n) >= 10)
            return pct;
    return 50.0;
}

/** How one closed-loop request ended. */
enum class Outcome
{
    Done,
    Failed,
    Rejected
};

/** What a closed-loop run did, summed over its clients. */
struct LoopResult
{
    std::vector<double> latency_ms; ///< completed requests only
    std::size_t attempted = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t rejected = 0;
    std::size_t max_in_flight = 0;
    unsigned clients = 0;
    double wall_s = 0.0;

    /** Every attempt ended exactly one way. */
    bool balanced() const
    {
        return attempted == done + failed + rejected;
    }

    /** Never more requests outstanding than clients. */
    bool closed() const { return max_in_flight <= clients; }
};

/**
 * Closed loop: @p clients threads, each sending its next request
 * only after the previous one completed, until @p seconds have
 * passed and each client has sent at least @p min_per_client.
 * @p fn(client, index, &latency_ms) performs one request, sets its
 * latency, and returns how it ended; the loop counts requests in
 * flight around the call. A loop that runs past @p hard_limit_s
 * stops early even below the minimum.
 */
template <typename Fn>
LoopResult
runClosedLoop(unsigned clients, double seconds,
              std::size_t min_per_client, double hard_limit_s, Fn &&fn)
{
    struct ClientTally
    {
        std::vector<double> latency_ms;
        std::size_t attempted = 0, done = 0, failed = 0, rejected = 0;
    };
    std::vector<ClientTally> tallies(clients);
    std::atomic<std::size_t> in_flight{0}, max_in_flight{0};
    const auto start = std::chrono::steady_clock::now();

    const auto client = [&](unsigned c) {
        ClientTally &t = tallies[c];
        for (std::size_t i = 0;; ++i) {
            const double elapsed = secondsSince(start);
            if ((elapsed >= seconds && i >= min_per_client) ||
                elapsed >= hard_limit_s)
                break;
            const std::size_t now = in_flight.fetch_add(1) + 1;
            std::size_t seen = max_in_flight.load();
            while (now > seen &&
                   !max_in_flight.compare_exchange_weak(seen, now)) {
            }
            double latency = 0.0;
            const Outcome outcome = fn(c, i, &latency);
            in_flight.fetch_sub(1);
            ++t.attempted;
            switch (outcome) {
            case Outcome::Done:
                ++t.done;
                t.latency_ms.push_back(latency);
                break;
            case Outcome::Failed:
                ++t.failed;
                break;
            case Outcome::Rejected:
                ++t.rejected;
                break;
            }
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client, c);
    for (auto &thread : threads)
        thread.join();

    LoopResult result;
    result.clients = clients;
    result.wall_s = secondsSince(start);
    result.max_in_flight = max_in_flight.load();
    for (const ClientTally &t : tallies) {
        result.latency_ms.insert(result.latency_ms.end(),
                                 t.latency_ms.begin(),
                                 t.latency_ms.end());
        result.attempted += t.attempted;
        result.done += t.done;
        result.failed += t.failed;
        result.rejected += t.rejected;
    }
    return result;
}

} // namespace perfbench

#endif // LSIM_PERFBENCH_STATS_HH
