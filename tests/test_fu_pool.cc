/**
 * @file
 * Unit tests for the round-robin functional unit pool and its
 * busy/idle run tracking.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cpu/fu_pool.hh"

namespace
{

using lsim::Cycle;
using lsim::cpu::FuPool;

TEST(FuPool, RoundRobinRotation)
{
    FuPool pool(3);
    pool.beginCycle();
    EXPECT_EQ(pool.allocate(), 0);
    EXPECT_EQ(pool.allocate(), 1);
    EXPECT_EQ(pool.allocate(), 2);
    EXPECT_EQ(pool.allocate(), -1); // all busy
    pool.endCycle();
    // Pointer persists across cycles: next allocation starts at 0
    // again (wrapped past 2).
    pool.beginCycle();
    EXPECT_EQ(pool.allocate(), 0);
    pool.endCycle();
}

TEST(FuPool, RotationSpreadsSingleOpAcrossUnits)
{
    FuPool pool(2);
    std::vector<int> got;
    for (int c = 0; c < 4; ++c) {
        pool.beginCycle();
        got.push_back(pool.allocate());
        pool.endCycle();
    }
    EXPECT_EQ(got, (std::vector<int>{0, 1, 0, 1}));
}

TEST(FuPool, BusyCounting)
{
    FuPool pool(2);
    for (int c = 0; c < 5; ++c) {
        pool.beginCycle();
        pool.allocate();
        if (c < 2)
            pool.allocate();
        pool.endCycle();
    }
    pool.finish();
    EXPECT_EQ(pool.cycles(), 5u);
    // Round-robin spreads the single op over both units.
    EXPECT_EQ(pool.busyCycles(0) + pool.busyCycles(1), 7u);
}

TEST(FuPool, RunSinkReceivesMaximalRuns)
{
    FuPool pool(1);
    struct Run
    {
        unsigned fu;
        bool busy;
        Cycle len;
    };
    std::vector<Run> runs;
    pool.setRunSink([&](unsigned fu, bool busy, Cycle len) {
        runs.push_back({fu, busy, len});
    });
    // Pattern: B B I I I B
    const bool pattern[] = {true, true, false, false, false, true};
    for (bool busy : pattern) {
        pool.beginCycle();
        if (busy)
            pool.allocate();
        pool.endCycle();
    }
    pool.finish();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_TRUE(runs[0].busy);
    EXPECT_EQ(runs[0].len, 2u);
    EXPECT_FALSE(runs[1].busy);
    EXPECT_EQ(runs[1].len, 3u);
    EXPECT_TRUE(runs[2].busy);
    EXPECT_EQ(runs[2].len, 1u);
}

TEST(FuPool, IdleStatsMatchPattern)
{
    FuPool pool(1);
    const bool pattern[] = {false, false, true, false, true, true};
    for (bool busy : pattern) {
        pool.beginCycle();
        if (busy)
            pool.allocate();
        pool.endCycle();
    }
    pool.finish();
    const auto &stats = pool.idleStats(0);
    EXPECT_EQ(stats.numIntervals(), 2u);
    EXPECT_EQ(stats.idleCycles(), 3u);
    EXPECT_DOUBLE_EQ(stats.idleFraction(), 0.5);
    EXPECT_DOUBLE_EQ(pool.utilization(0), 0.5);
}

/** Every observable of a pool: sink calls, histograms, counts. */
struct PoolTrace
{
    std::vector<std::tuple<unsigned, bool, Cycle>> runs;
    std::vector<Cycle> busy;
    std::vector<std::vector<double>> histograms;
    std::vector<Cycle> idle_cycles;
    Cycle cycles = 0;
    unsigned allocated = 0;

    bool operator==(const PoolTrace &) const = default;
};

/**
 * Drive a 3-unit pool through @p pattern (ops allocated per cycle,
 * -1 marking an idle stretch of @p gap cycles). The stretch goes
 * through creditIdle() when @p bulk, else through @p gap empty
 * beginCycle()/endCycle() pairs.
 */
PoolTrace
drivePool(const std::vector<int> &pattern, Cycle gap, bool bulk)
{
    FuPool pool(3);
    PoolTrace t;
    pool.setRunSink([&](unsigned fu, bool busy, Cycle len) {
        t.runs.emplace_back(fu, busy, len);
    });
    for (const int ops : pattern) {
        if (ops < 0 && bulk) {
            pool.creditIdle(gap);
            continue;
        }
        for (Cycle c = 0; c < (ops < 0 ? gap : 1); ++c) {
            pool.beginCycle();
            for (int i = 0; i < ops; ++i)
                pool.allocate();
            pool.endCycle();
        }
    }
    t.allocated = pool.allocatedThisCycle();
    pool.finish();
    t.cycles = pool.cycles();
    for (unsigned fu = 0; fu < pool.numUnits(); ++fu) {
        t.busy.push_back(pool.busyCycles(fu));
        const auto &rec = pool.idleStats(fu);
        t.idle_cycles.push_back(rec.idleCycles());
        std::vector<double> h;
        for (std::size_t b = 0; b < rec.histogram().numBuckets(); ++b)
            h.push_back(rec.histogram().bucketWeight(b));
        t.histograms.push_back(h);
    }
    return t;
}

TEST(FuPool, BulkIdleCreditEqualsEmptyCycles)
{
    // Idle stretches at the start, after a busy run still open on
    // some units, after a partly busy cycle, back to back, and at the
    // end; gap lengths from one cycle to beyond a histogram bucket.
    const std::vector<std::vector<int>> patterns = {
        {-1, 1, 2},
        {3, 3, -1, 1},
        {2, -1, -1, 0, 1, -1},
        {1, 0, -1, 3, 2, 1, -1},
    };
    for (const Cycle gap : {Cycle{1}, Cycle{2}, Cycle{37}, Cycle{5000}})
        for (const auto &pattern : patterns) {
            const PoolTrace bulk = drivePool(pattern, gap, true);
            EXPECT_EQ(bulk, drivePool(pattern, gap, false))
                << "gap " << gap;
            EXPECT_FALSE(bulk.runs.empty());
        }
}

TEST(FuPool, ZeroIdleCreditChangesNothing)
{
    EXPECT_EQ(drivePool({2, -1, 1}, 0, true), drivePool({2, 1}, 0, true));
}

TEST(FuPoolDeath, Protocol)
{
    FuPool pool(1);
    EXPECT_DEATH(pool.allocate(), "outside a cycle");
    EXPECT_DEATH(pool.endCycle(), "without beginCycle");
    pool.beginCycle();
    EXPECT_DEATH(pool.beginCycle(), "without endCycle");
    EXPECT_DEATH(pool.creditIdle(4), "inside a cycle");
}

TEST(FuPool, RejectsUnitCountOutsideRange)
{
    EXPECT_THROW(FuPool(0), std::invalid_argument);
    EXPECT_THROW(FuPool(9), std::invalid_argument);
}

TEST(FuPoolDeath, BadUnitIndex)
{
    FuPool pool(2);
    EXPECT_DEATH((void)pool.busyCycles(2), "bad unit");
    EXPECT_DEATH((void)pool.idleStats(5), "bad unit");
}

} // namespace
