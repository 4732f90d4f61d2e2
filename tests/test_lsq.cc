/**
 * @file
 * Unit tests for the load/store queue.
 */

#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "cpu/lsq.hh"

namespace
{

using lsim::cpu::LoadStoreQueue;

TEST(Lsq, CapacityAccounting)
{
    LoadStoreQueue lsq(2, 1);
    EXPECT_TRUE(lsq.canInsertLoad());
    EXPECT_TRUE(lsq.canInsertStore());
    lsq.insert(1, 0x100, false);
    lsq.insert(2, 0x200, false);
    EXPECT_FALSE(lsq.canInsertLoad());
    EXPECT_TRUE(lsq.canInsertStore());
    lsq.insert(3, 0x300, true);
    EXPECT_FALSE(lsq.canInsertStore());
    lsq.remove(1);
    EXPECT_TRUE(lsq.canInsertLoad());
    EXPECT_EQ(lsq.numLoads(), 1u);
    EXPECT_EQ(lsq.numStores(), 1u);
}

TEST(Lsq, OlderStoresGateLoads)
{
    LoadStoreQueue lsq(8, 8);
    const int store = lsq.insert(1, 0x100, true); // address unknown
    const int load = lsq.insert(2, 0x200, false);
    EXPECT_FALSE(lsq.olderStoresReady(load));
    lsq.setAddrReady(store);
    EXPECT_TRUE(lsq.olderStoresReady(load));
}

TEST(Lsq, YoungerStoresDoNotGate)
{
    LoadStoreQueue lsq(8, 8);
    const int load = lsq.insert(1, 0x100, false);
    lsq.insert(2, 0x200, true); // younger store
    EXPECT_TRUE(lsq.olderStoresReady(load));
}

TEST(Lsq, EveryOlderStoreMustHaveItsAddress)
{
    // Stores resolve out of order; a load waits for the last older
    // one, and a younger unresolved store never gates it.
    LoadStoreQueue lsq(8, 8);
    const int s1 = lsq.insert(1, 0x100, true);
    const int l2 = lsq.insert(2, 0x200, false);
    const int s3 = lsq.insert(3, 0x300, true);
    const int l4 = lsq.insert(4, 0x400, false);
    lsq.insert(5, 0x500, true);
    lsq.setAddrReady(s3);
    EXPECT_FALSE(lsq.olderStoresReady(l2));
    EXPECT_FALSE(lsq.olderStoresReady(l4));
    lsq.setAddrReady(s1);
    EXPECT_TRUE(lsq.olderStoresReady(l2));
    EXPECT_TRUE(lsq.olderStoresReady(l4));
}

TEST(Lsq, ForwardingSameWord)
{
    LoadStoreQueue lsq(8, 8);
    const int store = lsq.insert(1, 0x100, true);
    const int same = lsq.insert(2, 0x104, false); // same 8-byte word
    const int other = lsq.insert(3, 0x108, false); // different word
    EXPECT_FALSE(lsq.forwardsFromStore(same)); // addr not ready
    lsq.setAddrReady(store);
    EXPECT_TRUE(lsq.forwardsFromStore(same));
    EXPECT_FALSE(lsq.forwardsFromStore(other));
}

TEST(Lsq, ForwardingOnlyFromOlder)
{
    LoadStoreQueue lsq(8, 8);
    const int load = lsq.insert(1, 0x100, false); // load first
    const int store = lsq.insert(2, 0x100, true); // younger, same word
    lsq.setAddrReady(store);
    EXPECT_FALSE(lsq.forwardsFromStore(load));
}

TEST(Lsq, RemovePopsTheOldestAcrossWraparound)
{
    // Capacity 2 + 1 rounds to a 4-slot ring; 20 commits wrap it
    // several times while a store stays unresolved behind the head.
    LoadStoreQueue lsq(2, 1);
    std::uint64_t seq = 1;
    for (int round = 0; round < 10; ++round) {
        const int store = lsq.insert(seq, 0x100, true);
        const int load = lsq.insert(seq + 1, 0x104, false);
        EXPECT_FALSE(lsq.olderStoresReady(load));
        EXPECT_FALSE(lsq.forwardsFromStore(load));
        lsq.setAddrReady(store);
        EXPECT_TRUE(lsq.olderStoresReady(load));
        EXPECT_TRUE(lsq.forwardsFromStore(load));
        lsq.remove(seq);
        EXPECT_TRUE(lsq.olderStoresReady(load));
        EXPECT_FALSE(lsq.forwardsFromStore(load));
        lsq.remove(seq + 1);
        seq += 2;
    }
    EXPECT_EQ(lsq.numLoads(), 0u);
    EXPECT_EQ(lsq.numStores(), 0u);
}

TEST(Lsq, RejectsZeroCapacity)
{
    EXPECT_THROW(LoadStoreQueue(0, 8), std::invalid_argument);
    EXPECT_THROW(LoadStoreQueue(8, 0), std::invalid_argument);
}

TEST(LsqDeath, Misuse)
{
    LoadStoreQueue lsq(1, 1);
    lsq.insert(1, 0x100, false);
    EXPECT_DEATH(lsq.insert(2, 0x200, false), "full");
    EXPECT_DEATH(lsq.insert(1, 0x200, true), "program order");
    EXPECT_DEATH(lsq.setAddrReady(99), "not present");
    EXPECT_DEATH(lsq.setAddrReady(1), "not present"); // empty slot
    EXPECT_DEATH((void)lsq.olderStoresReady(-1), "not present");
    EXPECT_DEATH(lsq.remove(99), "not present");
    lsq.insert(2, 0x200, true);
    EXPECT_DEATH(lsq.remove(2), "not present at the head");
}

} // namespace
