/**
 * @file
 * Per-component snapshot/restore round-trip tests: a restored component
 * must be behaviorally indistinguishable from the original — identical
 * outcomes for identical subsequent stimulus.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/bpred/simple_predictors.h"
#include "src/bpred/tournament.h"
#include "src/bpred/two_bc_gskew.h"
#include "src/ckpt/io.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/core/lsq.h"
#include "src/core/phys_regfile.h"
#include "src/memory/cache.h"
#include "src/memory/dram.h"
#include "src/memory/hierarchy.h"
#include "src/obs/pipeline_stats.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"

namespace wsrs {
namespace {

/** Snapshot @p src and restore the bytes into @p dst. */
template <typename T>
void
roundTrip(const T &src, T &dst)
{
    ckpt::Writer w;
    src.snapshot(w);
    ckpt::Reader r(w.buffer(), "<roundtrip>");
    dst.restore(r);
    EXPECT_TRUE(r.atEnd()) << "restore left " << r.remaining()
                           << " unread bytes";
}

/** Deterministic address pattern covering a few sets with reuse. */
Addr
probeAddr(int i)
{
    return static_cast<Addr>((i * 0x9e3779b97f4a7c15ull) >> 16) & 0xffff8;
}

TEST(ComponentRoundTrip, CacheMidSetFill)
{
    // Partially fill one set (2 of 4 ways) so restore must reproduce a
    // set with both valid and invalid lines, then check that original and
    // restored caches agree on every subsequent access outcome.
    memory::CacheParams p{.sizeBytes = 4096, .assoc = 4, .lineBytes = 64};
    memory::Cache cache(p);
    const Addr setStride = 4096 / 4;  // numSets * lineBytes
    cache.access(0x0, false);             // way 0 of set 0
    cache.access(setStride * 4, true);    // way 1 of set 0, dirty
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(setStride * 8));

    memory::Cache restored(p);
    roundTrip(cache, restored);
    EXPECT_TRUE(restored.probe(0x0));
    EXPECT_TRUE(restored.probe(setStride * 4));
    EXPECT_FALSE(restored.probe(setStride * 8));

    // Overfill the set in both: victims (LRU order, dirty writebacks)
    // must match, proving replacement state survived the round trip.
    for (int i = 2; i < 8; ++i) {
        const auto a = cache.access(setStride * 4 * i, i % 2 == 0);
        const auto b = restored.access(setStride * 4 * i, i % 2 == 0);
        EXPECT_EQ(a.hit, b.hit) << "access " << i;
        EXPECT_EQ(a.writebackVictim, b.writebackVictim) << "access " << i;
    }
}

TEST(ComponentRoundTrip, CacheEveryReplacementPolicy)
{
    using memory::ReplacementPolicy;
    for (const auto policy :
         {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
          ReplacementPolicy::Random, ReplacementPolicy::TreePlru}) {
        memory::CacheParams p{.sizeBytes = 8192, .assoc = 4, .lineBytes = 64,
                              .replacement = policy};
        memory::Cache cache(p);
        for (int i = 0; i < 500; ++i)
            cache.access(probeAddr(i), i % 3 == 0);

        memory::Cache restored(p);
        roundTrip(cache, restored);
        for (int i = 0; i < 500; ++i) {
            const auto a = cache.access(probeAddr(i * 7 + 3), i % 5 == 0);
            const auto b = restored.access(probeAddr(i * 7 + 3), i % 5 == 0);
            ASSERT_EQ(a.hit, b.hit)
                << "policy " << int(policy) << " access " << i;
            ASSERT_EQ(a.writebackVictim, b.writebackVictim)
                << "policy " << int(policy) << " access " << i;
        }
    }
}

TEST(ComponentRoundTrip, CacheRejectsGeometryMismatch)
{
    memory::Cache small(
        memory::CacheParams{.sizeBytes = 4096, .assoc = 4, .lineBytes = 64});
    memory::Cache big(
        memory::CacheParams{.sizeBytes = 8192, .assoc = 4, .lineBytes = 64});
    ckpt::Writer w;
    small.snapshot(w);
    ckpt::Reader r(w.buffer(), "<geom>");
    EXPECT_THROW(big.restore(r), FatalError);
}

TEST(ComponentRoundTrip, HierarchyTimingAndCounters)
{
    memory::HierarchyParams p;
    p.mshrs = 4;  // exercise the in-flight-miss ring too
    StatGroup sa("a"), sb("b");
    memory::MemoryHierarchy mem(p, sa);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        mem.access(probeAddr(i), i % 4 == 0, now);
        now += 2;
    }

    memory::MemoryHierarchy restored(p, sb);
    roundTrip(mem, restored);
    EXPECT_EQ(restored.accesses(), mem.accesses());
    EXPECT_EQ(restored.l1Misses(), mem.l1Misses());
    EXPECT_EQ(restored.l2Misses(), mem.l2Misses());
    EXPECT_EQ(restored.mshrStalls(), mem.mshrStalls());

    // Timing must agree access for access: port occupancy, MSHR ring and
    // tag state all influence latency.
    for (int i = 0; i < 2000; ++i) {
        const auto a = mem.access(probeAddr(i * 3 + 1), i % 5 == 0, now);
        const auto b = restored.access(probeAddr(i * 3 + 1), i % 5 == 0, now);
        ASSERT_EQ(a.latency, b.latency) << "access " << i;
        ASSERT_EQ(a.l1Hit, b.l1Hit) << "access " << i;
        ASSERT_EQ(a.l2Hit, b.l2Hit) << "access " << i;
        now += 3;
    }
}

TEST(ComponentRoundTrip, EveryPredictorKind)
{
    const auto make = [](int kind) -> std::unique_ptr<bpred::BranchPredictor> {
        switch (kind) {
          case 0: return std::make_unique<bpred::TwoBcGskew>();
          case 1: return std::make_unique<bpred::TournamentPredictor>();
          case 2: return std::make_unique<bpred::GsharePredictor>();
          case 3: return std::make_unique<bpred::BimodalPredictor>();
          default: return std::make_unique<bpred::PerfectPredictor>();
        }
    };
    for (int kind = 0; kind < 5; ++kind) {
        const auto a = make(kind);
        const auto b = make(kind);
        // Train with a deterministic, history-sensitive stream.
        std::uint64_t x = 0x2545f4914f6cdd1d;
        for (int i = 0; i < 5000; ++i) {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            const Addr pc = 0x1000 + (x & 0x3ff) * 4;
            const bool taken = ((x >> 11) & 7) != 0;
            (void)a->lookup(pc);
            a->update(pc, taken);
        }
        ckpt::Writer w;
        a->snapshot(w);
        ckpt::Reader r(w.buffer(), "<bpred>");
        b->restore(r);
        EXPECT_TRUE(r.atEnd()) << a->name();
        // Identical predictions and history evolution from here on.
        for (int i = 0; i < 5000; ++i) {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            const Addr pc = 0x1000 + (x & 0x3ff) * 4;
            const bool taken = ((x >> 9) & 3) != 0;
            ASSERT_EQ(a->lookup(pc), b->lookup(pc))
                << a->name() << " diverged at " << i;
            a->update(pc, taken);
            b->update(pc, taken);
        }
    }
}

TEST(ComponentRoundTrip, PredictorRejectsWrongTableSize)
{
    bpred::BimodalPredictor small(10);  // 2^10 entries
    bpred::BimodalPredictor big(12);
    ckpt::Writer w;
    small.snapshot(w);
    ckpt::Reader r(w.buffer(), "<bpred>");
    EXPECT_THROW(big.restore(r), FatalError);
}

TEST(ComponentRoundTrip, TraceGeneratorMidStream)
{
    const workload::BenchmarkProfile &profile =
        workload::findProfile("mcf");
    workload::TraceGenerator a(profile, 7);
    for (int i = 0; i < 12345; ++i)
        (void)a.next();

    workload::TraceGenerator b(profile, 7);
    roundTrip(a, b);
    EXPECT_EQ(b.produced(), a.produced());
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp x = a.next();
        const isa::MicroOp y = b.next();
        ASSERT_EQ(x.seq, y.seq);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.op, y.op);
        ASSERT_EQ(x.src1, y.src1);
        ASSERT_EQ(x.src2, y.src2);
        ASSERT_EQ(x.dst, y.dst);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.effAddr, y.effAddr);
    }
}

TEST(ComponentRoundTrip, TraceGeneratorRejectsDifferentProfile)
{
    workload::TraceGenerator a(workload::findProfile("gzip"), 0);
    workload::TraceGenerator b(workload::findProfile("swim"), 0);
    for (int i = 0; i < 100; ++i)
        (void)a.next();
    ckpt::Writer w;
    a.snapshot(w);
    ckpt::Reader r(w.buffer(), "<gen>");
    EXPECT_THROW(b.restore(r), FatalError);
}

TEST(ComponentRoundTrip, PhysRegFileWithPendingRecycles)
{
    core::PhysRegFile a(128, 4);
    std::vector<PhysReg> held;
    for (int s = 0; s < 4; ++s)
        for (int i = 0; i < 8; ++i)
            held.push_back(a.allocate(static_cast<SubsetId>(s)));
    a.releaseDeferred(held[0], 50);
    a.releaseDeferred(held[5], 60);

    core::PhysRegFile b(128, 4);
    roundTrip(a, b);
    for (SubsetId s = 0; s < 4; ++s)
        EXPECT_EQ(b.numFree(s), a.numFree(s)) << "subset " << int(s);
    // Allocation order must match exactly (free lists are ordered).
    for (int i = 0; i < 20; ++i) {
        const SubsetId s = static_cast<SubsetId>(i % 4);
        ASSERT_EQ(a.allocate(s), b.allocate(s)) << "alloc " << i;
    }
}

TEST(ComponentRoundTrip, PhysRegFileWithWrappedRecyclerRing)
{
    // The recycler is a fixed-capacity power-of-two ring; drive enough
    // release/drain cycles through it that the head wraps several times,
    // then snapshot with live entries straddling the wrap point.
    core::PhysRegFile a(64, 4);
    Cycle now = 0;
    for (int i = 0; i < 60; ++i) {
        for (SubsetId s = 0; s < 4; ++s) {
            const PhysReg p = a.allocate(s);
            a.releaseDeferred(p, now + 3);
        }
        a.drainRecycler(now);
        ++now;
    }
    EXPECT_GT(a.inRecycler(), 0u);  // the last few cycles' entries pend

    core::PhysRegFile b(64, 4);
    roundTrip(a, b);
    EXPECT_EQ(b.inRecycler(), a.inRecycler());
    for (SubsetId s = 0; s < 4; ++s)
        ASSERT_EQ(b.numFree(s), a.numFree(s)) << "subset " << int(s);

    // Drain and re-recycle for a while: maturity timing, free-list order
    // and ring position must all have survived the round trip.
    for (int i = 0; i < 10; ++i) {
        a.drainRecycler(now);
        b.drainRecycler(now);
        for (SubsetId s = 0; s < 4; ++s) {
            ASSERT_EQ(a.numFree(s), b.numFree(s))
                << "cycle " << i << " subset " << int(s);
            while (a.numFree(s) > 0) {
                const PhysReg p = a.allocate(s);
                ASSERT_EQ(p, b.allocate(s)) << "cycle " << i;
                a.releaseDeferred(p, now + 2);
                b.releaseDeferred(p, now + 2);
            }
        }
        ++now;
    }
    EXPECT_EQ(b.inRecycler(), a.inRecycler());
}

TEST(ComponentRoundTrip, LsqWithWrappedRingAndForwardChains)
{
    // Retire enough mem-ops that the ordinal ring wraps (capacity 8 ->
    // ring 8), so the snapshotted live window straddles slot reuse.
    core::LoadStoreQueue a(8);
    for (int i = 0; i < 12; ++i) {
        const std::uint64_t o =
            a.allocate(/*is_store=*/i % 3 == 0, 0x40 + i * 8, i);
        a.markAddrComputed(o);
        a.popFront();
    }

    // Two more addresses whose mix64 hashes agree with 0x300's in the
    // low 8 bits, so all three share one of the queue's 16 chain buckets.
    std::vector<Addr> alias;
    for (Addr x = 0x308; alias.size() < 2; x += 8) {
        if (((mix64(x) ^ mix64(0x300)) & 0xff) == 0)
            alias.push_back(x);
    }

    // Live window (full) with two same-address stores (a forwarding chain
    // the restore path must rebuild), a younger store the probe for the
    // middle load has to walk past, and two stores to different
    // addresses in the last load's bucket that its probe must skip.
    const std::uint64_t s1 = a.allocate(true, 0x100, 100);   // ordinal 12
    const std::uint64_t s2 = a.allocate(true, 0x200, 101);   // ordinal 13
    const std::uint64_t ld1 = a.allocate(false, 0x100, 102); // ordinal 14
    const std::uint64_t s3 = a.allocate(true, 0x100, 103);   // ordinal 15
    const std::uint64_t ld2 = a.allocate(false, 0x100, 104); // ordinal 16
    const std::uint64_t s4 = a.allocate(true, alias[0], 105); // ordinal 17
    const std::uint64_t s5 = a.allocate(true, alias[1], 106); // ordinal 18
    const std::uint64_t ld3 = a.allocate(false, 0x300, 107); // ordinal 19
    ASSERT_TRUE(a.full());
    a.markAddrComputed(s1);
    a.markAddrComputed(s2);
    a.markAddrComputed(ld1);
    a.markAddrComputed(s3);
    a.setStoreData(s1, 0xab);

    // ld1 must forward from s1 (skipping the younger s3 on the chain).
    const core::ForwardProbe before = a.probeForward(ld1, 0x100);
    EXPECT_TRUE(before.conflict);
    EXPECT_TRUE(before.dataReady);
    EXPECT_EQ(before.value, 0xabu);

    core::LoadStoreQueue b(8);
    roundTrip(a, b);
    EXPECT_EQ(b.size(), a.size());
    std::uint64_t ra = 0, rb = 0;
    ASSERT_EQ(a.nextAgen(ra), b.nextAgen(rb));
    EXPECT_EQ(ra, rb);
    EXPECT_EQ(b.storeDataReady(s1), a.storeDataReady(s1));
    EXPECT_EQ(b.storeDataReady(s2), a.storeDataReady(s2));
    const core::ForwardProbe after = b.probeForward(ld1, 0x100);
    EXPECT_EQ(after.conflict, before.conflict);
    EXPECT_EQ(after.dataReady, before.dataReady);
    EXPECT_EQ(after.value, before.value);

    // Drive both queues identically through the rest of the window: the
    // rebuilt chains must give the same probe results at every step.
    for (core::LoadStoreQueue *q : {&a, &b}) {
        q->markAddrComputed(ld2);
        q->markAddrComputed(s4);
        q->markAddrComputed(s5);
        q->markAddrComputed(ld3);
        q->setStoreData(s4, 0xef);
    }
    core::ForwardProbe pa = a.probeForward(ld2, 0x100);
    core::ForwardProbe pb = b.probeForward(ld2, 0x100);
    EXPECT_TRUE(pa.conflict);
    EXPECT_FALSE(pa.dataReady);  // s3's data not captured yet
    EXPECT_EQ(pb.conflict, pa.conflict);
    EXPECT_EQ(pb.dataReady, pa.dataReady);
    a.setStoreData(s3, 0xcd);
    b.setStoreData(s3, 0xcd);
    pa = a.probeForward(ld2, 0x100);
    pb = b.probeForward(ld2, 0x100);
    EXPECT_TRUE(pa.dataReady);
    EXPECT_EQ(pa.value, 0xcdu);
    EXPECT_EQ(pb.dataReady, pa.dataReady);
    EXPECT_EQ(pb.value, pa.value);
    pa = a.probeForward(ld3, 0x300);
    pb = b.probeForward(ld3, 0x300);
    EXPECT_FALSE(pa.conflict);
    EXPECT_EQ(pb.conflict, pa.conflict);
    // Probing s4's address finds s4 past the younger s5 in its bucket.
    pa = a.probeForward(ld3, alias[0]);
    pb = b.probeForward(ld3, alias[0]);
    EXPECT_TRUE(pa.conflict);
    EXPECT_TRUE(pa.dataReady);
    EXPECT_EQ(pa.value, 0xefu);
    EXPECT_EQ(pb.conflict, pa.conflict);
    EXPECT_EQ(pb.dataReady, pa.dataReady);
    EXPECT_EQ(pb.value, pa.value);

    // Retire the whole window, then keep allocating past it: ordinals and
    // chain state must continue identically after further ring wraps.
    for (int i = 0; i < 8; ++i) {
        a.popFront();
        b.popFront();
    }
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b.size(), 0u);
    for (int i = 0; i < 10; ++i) {
        const std::uint64_t oa = a.allocate(true, 0x100, 200 + i);
        const std::uint64_t ob = b.allocate(true, 0x100, 200 + i);
        ASSERT_EQ(oa, ob);
        a.markAddrComputed(oa);
        b.markAddrComputed(ob);
        if (i >= 4) {
            a.popFront();
            b.popFront();
        }
    }
    // A probe from a fresh load sees the same youngest live store in both.
    const std::uint64_t la = a.allocate(false, 0x100, 300);
    const std::uint64_t lb = b.allocate(false, 0x100, 300);
    ASSERT_EQ(la, lb);
    a.markAddrComputed(la);
    b.markAddrComputed(lb);
    pa = a.probeForward(la, 0x100);
    pb = b.probeForward(lb, 0x100);
    EXPECT_TRUE(pa.conflict);
    EXPECT_EQ(pb.conflict, pa.conflict);
    EXPECT_EQ(pb.dataReady, pa.dataReady);
}

// Restore never sizes memory from an unchecked count. Each input carries a
// count that the bytes left or the target's configuration cannot hold, or
// a list the component could never have built; each must fail as an
// IoError naming its byte offset, which wsrs-sim turns into exit code 2,
// never as std::length_error or a later assertion.
TEST(ComponentRoundTrip, RejectsCountsBeyondPayloadOrConfiguration)
{
    constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;
    const auto poke = [](std::string bytes, std::size_t at,
                         std::uint64_t v) {
        ckpt::storeLe(bytes.data() + at, v, 8);
        return bytes;
    };

    // A PipelineStats payload ends with its interval-sample count.
    ckpt::Writer pipe;
    obs::PipelineStats(4).snapshot(pipe);

    // A DRAM payload with two requests in flight: the bank count, each
    // bank's readiness and open row, the bus, then the completion list.
    memory::DramParams dp;
    dp.banks = 2;
    StatGroup g("dram");
    ckpt::Writer dram;
    {
        memory::DramController d(dp, g);
        d.request(0x0, false, 0, 0);
        d.request(0x40000, false, 0, 0);
        ASSERT_EQ(d.inFlight(), 2u);
        d.snapshot(dram);
    }
    const std::size_t count_at = 8 + 16 * dp.banks + 8;
    const std::string &db = dram.buffer();
    const std::uint64_t first = ckpt::loadLe(db.data() + count_at + 8, 8);
    const std::uint64_t second = ckpt::loadLe(db.data() + count_at + 16, 8);
    ASSERT_EQ(ckpt::loadLe(db.data() + count_at, 8), 2u);
    ASSERT_LT(first, second);
    const auto dramRestore = [&](ckpt::Reader &r) {
        StatGroup rg("dram");
        memory::DramController(dp, rg).restore(r);
    };

    const struct
    {
        const char *what;
        std::string bytes;
        std::function<void(ckpt::Reader &)> restore;
    } cases[] = {
        {"interval samples", poke(pipe.buffer(), pipe.size() - 8, kHuge),
         [](ckpt::Reader &r) { obs::PipelineStats(4).restore(r); }},
        {"DRAM completions beyond the window", poke(db, count_at, kHuge),
         dramRestore},
        {"decreasing DRAM completions",
         poke(poke(db, count_at + 8, second), count_at + 16, first),
         dramRestore},
        {"DRAM completion after the bus", poke(db, count_at + 16, kHuge),
         dramRestore},
    };
    for (const auto &c : cases) {
        ckpt::Reader r(c.bytes, "<reject>");
        try {
            c.restore(r);
            ADD_FAILURE() << c.what << ": restored";
        } catch (const IoError &e) {
            EXPECT_NE(std::string(e.what()).find("byte offset"),
                      std::string::npos)
                << c.what << ": " << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << c.what << ": not an IoError: " << e.what();
        }
    }
}

} // namespace
} // namespace wsrs
