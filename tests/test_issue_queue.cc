/**
 * @file
 * Unit tests for the age-ordered issue queue.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include <vector>

#include "cpu/issue_queue.hh"

namespace
{

using lsim::cpu::IssueQueue;

TEST(IssueQueue, InsertAndCapacity)
{
    IssueQueue iq(3);
    EXPECT_TRUE(iq.empty());
    iq.insert(1, true);
    iq.insert(2, true);
    iq.insert(3, true);
    EXPECT_TRUE(iq.full());
    EXPECT_EQ(iq.size(), 3u);
}

TEST(IssueQueue, SelectIssueRemovesChosen)
{
    IssueQueue iq(8);
    for (std::uint64_t s : {1, 2, 3, 4, 5})
        iq.insert(s, true);
    // Issue the even seqs.
    iq.selectIssue([](std::uint64_t seq, bool &) {
        return seq % 2 == 0;
    });
    EXPECT_EQ(iq.size(), 3u);
    std::vector<std::uint64_t> rest;
    iq.selectIssue([&](std::uint64_t seq, bool &) {
        rest.push_back(seq);
        return false;
    });
    EXPECT_EQ(rest, (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(IssueQueue, VisitsOldestFirst)
{
    IssueQueue iq(8);
    for (std::uint64_t s : {10, 20, 30})
        iq.insert(s, true);
    std::vector<std::uint64_t> order;
    iq.selectIssue([&](std::uint64_t seq, bool &) {
        order.push_back(seq);
        return false;
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{10, 20, 30}));
}

TEST(IssueQueue, StopTokenHaltsScan)
{
    IssueQueue iq(8);
    for (std::uint64_t s : {1, 2, 3, 4})
        iq.insert(s, true);
    int visited = 0;
    iq.selectIssue([&](std::uint64_t, bool &stop) {
        ++visited;
        if (visited == 2)
            stop = true;
        return true; // issue everything we see
    });
    EXPECT_EQ(visited, 2);
    // The two visited entries issued; the rest remain.
    EXPECT_EQ(iq.size(), 2u);
}

TEST(IssueQueue, InsertAfterIssueKeepsOrder)
{
    IssueQueue iq(4);
    iq.insert(1, true);
    iq.insert(2, true);
    iq.selectIssue([](std::uint64_t seq, bool &) {
        return seq == 1;
    });
    iq.insert(3, true);
    std::vector<std::uint64_t> order;
    iq.selectIssue([&](std::uint64_t seq, bool &) {
        order.push_back(seq);
        return false;
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3}));
}

TEST(IssueQueue, WaitingEntriesIssueOnlyOnceWokenInAgeOrder)
{
    IssueQueue iq(8);
    iq.insert(1, false);
    iq.insert(2, true);
    iq.insert(3, false);
    iq.insert(4, false);
    EXPECT_EQ(iq.size(), 4u);
    std::vector<std::uint64_t> seen;
    const auto visit = [&] {
        seen.clear();
        iq.selectIssue([&](std::uint64_t seq, bool &) {
            seen.push_back(seq);
            return false;
        });
    };
    visit();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{2}));
    // Wakeups arrive in any order; the ready list stays age-sorted.
    iq.wake(4);
    iq.wake(1);
    visit();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 4}));
    iq.selectIssue([](std::uint64_t seq, bool &) { return seq != 2; });
    EXPECT_EQ(iq.size(), 2u); // 2 is ready, 3 still waits
    iq.wake(3);
    visit();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 3}));
}

TEST(IssueQueue, RejectsZeroCapacity)
{
    EXPECT_THROW(IssueQueue(0), std::invalid_argument);
}

TEST(IssueQueueDeath, Misuse)
{
    IssueQueue iq(1);
    iq.insert(5, true);
    EXPECT_DEATH(iq.insert(6, true), "full");
    IssueQueue iq2(4);
    iq2.insert(5, true);
    EXPECT_DEATH(iq2.insert(5, true), "program order");
    EXPECT_DEATH(iq2.wake(5), "no entry is waiting");
}

} // namespace
