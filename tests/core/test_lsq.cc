/** @file Tests for the load/store queue and address ordering. */
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "src/ckpt/io.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/core/lsq.h"

namespace wsrs::core {
namespace {

TEST(Lsq, AllocatesConsecutiveOrdinals)
{
    LoadStoreQueue lsq(8);
    EXPECT_EQ(lsq.allocate(false, 0x100, 1), 0u);
    EXPECT_EQ(lsq.allocate(true, 0x200, 2), 1u);
    EXPECT_EQ(lsq.allocate(false, 0x300, 3), 2u);
    EXPECT_EQ(lsq.size(), 3u);
}

TEST(Lsq, FullWhenAtCapacity)
{
    LoadStoreQueue lsq(2);
    lsq.allocate(false, 0x100, 1);
    EXPECT_FALSE(lsq.full());
    lsq.allocate(false, 0x200, 2);
    EXPECT_TRUE(lsq.full());
}

TEST(Lsq, AgenProceedsStrictlyInOrder)
{
    LoadStoreQueue lsq(8);
    lsq.allocate(false, 0x100, 10);
    lsq.allocate(true, 0x200, 11);
    lsq.allocate(false, 0x300, 12);

    std::uint64_t rn = 0;
    ASSERT_TRUE(lsq.nextAgen(rn));
    EXPECT_EQ(rn, 10u);
    EXPECT_FALSE(lsq.addrComputed(0));
    lsq.markAddrComputed(0);
    EXPECT_TRUE(lsq.addrComputed(0));
    EXPECT_FALSE(lsq.addrComputed(1));

    ASSERT_TRUE(lsq.nextAgen(rn));
    EXPECT_EQ(rn, 11u);
    lsq.markAddrComputed(1);
    lsq.markAddrComputed(2);
    EXPECT_FALSE(lsq.nextAgen(rn));
}

TEST(Lsq, ForwardingFindsYoungestOlderStore)
{
    LoadStoreQueue lsq(8);
    const auto st1 = lsq.allocate(true, 0x100, 1);
    const auto st2 = lsq.allocate(true, 0x100, 2);
    const auto ld = lsq.allocate(false, 0x100, 3);
    lsq.markAddrComputed(st1);
    lsq.markAddrComputed(st2);
    lsq.markAddrComputed(ld);
    lsq.setStoreData(st1, 0xaaaa);
    lsq.setStoreData(st2, 0xbbbb);

    const ForwardProbe p = lsq.probeForward(ld, 0x100);
    EXPECT_TRUE(p.conflict);
    EXPECT_TRUE(p.dataReady);
    EXPECT_EQ(p.value, 0xbbbbull);
}

TEST(Lsq, ForwardingReportsPendingStoreData)
{
    LoadStoreQueue lsq(8);
    const auto st = lsq.allocate(true, 0x500, 1);
    const auto ld = lsq.allocate(false, 0x500, 2);
    lsq.markAddrComputed(st);
    lsq.markAddrComputed(ld);

    ForwardProbe p = lsq.probeForward(ld, 0x500);
    EXPECT_TRUE(p.conflict);
    EXPECT_FALSE(p.dataReady);

    lsq.setStoreData(st, 0x1234);
    p = lsq.probeForward(ld, 0x500);
    EXPECT_TRUE(p.dataReady);
    EXPECT_EQ(p.value, 0x1234ull);
}

TEST(Lsq, NoConflictWhenAddressesDiffer)
{
    LoadStoreQueue lsq(8);
    const auto st = lsq.allocate(true, 0x100, 1);
    const auto ld = lsq.allocate(false, 0x180, 2);
    lsq.markAddrComputed(st);
    lsq.markAddrComputed(ld);
    EXPECT_FALSE(lsq.probeForward(ld, 0x180).conflict);
}

TEST(Lsq, YoungerStoresDoNotForwardBackward)
{
    LoadStoreQueue lsq(8);
    const auto ld = lsq.allocate(false, 0x700, 1);
    const auto st = lsq.allocate(true, 0x700, 2);
    lsq.markAddrComputed(ld);
    lsq.markAddrComputed(st);
    EXPECT_FALSE(lsq.probeForward(ld, 0x700).conflict);
}

TEST(Lsq, PopFrontAdvancesOrdinalsAndAgen)
{
    LoadStoreQueue lsq(4);
    lsq.allocate(true, 0x100, 1);
    lsq.allocate(false, 0x100, 2);
    lsq.markAddrComputed(0);
    lsq.markAddrComputed(1);
    lsq.setStoreData(0, 7);
    lsq.popFront();
    EXPECT_EQ(lsq.size(), 1u);
    // The remaining load no longer sees the popped store.
    EXPECT_FALSE(lsq.probeForward(1, 0x100).conflict);
    // New allocations continue the ordinal sequence.
    EXPECT_EQ(lsq.allocate(false, 0x300, 3), 2u);
}

TEST(Lsq, StoreDataRoundTrip)
{
    LoadStoreQueue lsq(4);
    const auto st = lsq.allocate(true, 0x40, 1);
    EXPECT_FALSE(lsq.storeDataReady(st));
    lsq.setStoreData(st, 0xfeed);
    EXPECT_TRUE(lsq.storeDataReady(st));
    EXPECT_EQ(lsq.storeData(st), 0xfeedull);
}

/** The model's view of one live entry. */
struct RefEntry
{
    std::uint64_t ordinal;
    bool isStore;
    Addr addr;
    std::uint64_t robNum;
    bool dataReady = false;
    std::uint64_t value = 0;
};

/** Brute-force forwarding: scan the live window from the load back. */
ForwardProbe
referenceProbe(const std::deque<RefEntry> &live, std::uint64_t load_ordinal,
               Addr addr)
{
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
        if (it->ordinal < load_ordinal && it->isStore && it->addr == addr)
            return {true, it->dataReady, it->value};
    }
    return {};
}

/**
 * @p n addresses whose mix64 hashes agree with @p base's in the low 8
 * bits, so they share a chain bucket in any LSQ of up to 128 entries.
 */
std::vector<Addr>
sameBucket(Addr base, std::size_t n)
{
    std::vector<Addr> out{base};
    for (Addr a = base + 8; out.size() < n; a += 8) {
        if (((mix64(a) ^ mix64(base)) & 0xff) == 0)
            out.push_back(a);
    }
    return out;
}

// Seeded random streams against a brute-force scan of the live window:
// every probe must name the youngest older store to the same address.
// The addresses crowd two buckets, the ring wraps hundreds of times,
// and halfway through each stream the queue is snapshotted and the rest
// runs on a fresh queue restored from those bytes.
TEST(Lsq, ForwardingMatchesBruteForceScan)
{
    std::vector<Addr> pool = sameBucket(0x1000, 5);
    for (Addr a : sameBucket(0x8000, 4))
        pool.push_back(a);
    pool.push_back(0x40);  // and two addresses anywhere
    pool.push_back(0x48);

    constexpr int kOps = 20000;
    for (unsigned capacity : {1u, 3u, 6u, 8u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << capacity << " seed " << seed);
            XorShiftRng rng(seed);
            auto lsq = std::make_unique<LoadStoreQueue>(capacity);
            std::deque<RefEntry> live;
            std::uint64_t next_ordinal = 0, next_rob = 0, computed = 0;
            std::uint64_t probes = 0, hits = 0;
            for (int op = 0; op < kOps; ++op) {
                if (op == kOps / 2) {
                    ckpt::Writer w;
                    lsq->snapshot(w);
                    auto fresh = std::make_unique<LoadStoreQueue>(capacity);
                    ckpt::Reader r(w.buffer(), "<lsq>");
                    fresh->restore(r);
                    lsq = std::move(fresh);
                }
                switch (rng.below(5)) {
                case 0:  // allocate
                    if (!lsq->full()) {
                        const bool st = rng.below(2) == 0;
                        const Addr a = pool[rng.below(pool.size())];
                        ASSERT_EQ(lsq->allocate(st, a, next_rob),
                                  next_ordinal);
                        live.push_back({next_ordinal++, st, a, next_rob++});
                    }
                    break;
                case 1: {  // in-order address generation
                    std::uint64_t rn = 0;
                    ASSERT_EQ(lsq->nextAgen(rn), computed < live.size());
                    if (computed < live.size()) {
                        EXPECT_EQ(rn, live[computed].robNum);
                        lsq->markAddrComputed(live[computed].ordinal);
                        ++computed;
                    }
                    break;
                }
                case 2:  // capture some store's data
                    if (!live.empty()) {
                        RefEntry &e = live[rng.below(live.size())];
                        if (e.isStore) {
                            e.dataReady = true;
                            e.value = rng.next();
                            lsq->setStoreData(e.ordinal, e.value);
                        }
                    }
                    break;
                case 3:  // probe from some load whose address is known
                    if (computed > 0) {
                        const RefEntry &e = live[rng.below(computed)];
                        if (!e.isStore) {
                            const ForwardProbe want =
                                referenceProbe(live, e.ordinal, e.addr);
                            const ForwardProbe got =
                                lsq->probeForward(e.ordinal, e.addr);
                            ASSERT_EQ(got.conflict, want.conflict)
                                << "load ordinal " << e.ordinal;
                            ASSERT_EQ(got.dataReady, want.dataReady);
                            ASSERT_EQ(got.value, want.value);
                            ++probes;
                            hits += want.conflict;
                        }
                    }
                    break;
                case 4:  // commit the oldest entry
                    if (computed > 0) {
                        lsq->popFront();
                        live.pop_front();
                        --computed;
                    }
                    break;
                }
                ASSERT_EQ(lsq->size(), live.size());
            }
            // The stream exercised both outcomes (a one-entry queue never
            // holds a store older than a load) and wrapped the ring.
            if (capacity > 1) {
                EXPECT_GT(hits, 0u);
            }
            EXPECT_GT(probes - hits, 0u);
            EXPECT_GT(next_ordinal, 100u * capacity);
        }
    }
}

} // namespace
} // namespace wsrs::core
