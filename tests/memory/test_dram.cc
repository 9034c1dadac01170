/** @file Tests for the event-driven DRAM backend (bank state machine,
 *  completion order, bounded window, stall attribution, checkpointing). */
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "src/ckpt/io.h"
#include "src/memory/dram.h"

namespace wsrs::memory {
namespace {

using obs::MemQueueStall;

/** Small, round-number geometry so latencies are easy to compute:
 *  2 banks, 1 KB rows, tRp=10, tRcd=10, tCas=5, burst=4, window=2. */
DramParams
tinyDram()
{
    DramParams p;
    p.banks = 2;
    p.rowBytes = 1024;
    p.tRp = 10;
    p.tRcd = 10;
    p.tCas = 5;
    p.burstCycles = 4;
    p.windowDepth = 2;
    return p;
}

class DramTest : public ::testing::Test
{
  protected:
    StatGroup stats_{"test"};
    DramController dram_{tinyDram(), stats_};
};

TEST_F(DramTest, RowEmptyHitAndConflictLatencies)
{
    // Cold bank: activate + CAS + burst = 10 + 5 + 4.
    EXPECT_EQ(dram_.request(0x0, false, 0, 0), 19u);
    EXPECT_EQ(dram_.rowEmpties(), 1u);

    // Open-row hit: CAS + burst only.
    EXPECT_EQ(dram_.request(0x40, false, 100, 100), 9u);
    EXPECT_EQ(dram_.rowHits(), 1u);

    // Same bank (bank 0 holds even row addresses), different row:
    // precharge + activate + CAS + burst = 10 + 10 + 5 + 4.
    EXPECT_EQ(dram_.request(2 * 1024, false, 200, 200), 29u);
    EXPECT_EQ(dram_.rowConflicts(), 1u);
    EXPECT_EQ(dram_.requests(), 3u);
}

TEST_F(DramTest, SharedBusSerializesSameCycleRequests)
{
    // Two cold requests to different banks in the same cycle: both pay
    // activate+CAS in parallel (15), but the second's burst waits for
    // the first to leave the bus (done at 19).
    EXPECT_EQ(dram_.request(0x0, false, 0, 0), 19u);
    EXPECT_EQ(dram_.request(1024, false, 0, 0), 23u);
}

TEST_F(DramTest, ClosedPagePolicyAlwaysActivates)
{
    DramParams p = tinyDram();
    p.closedPage = true;
    StatGroup g("closed");
    DramController dram(p, g);
    EXPECT_EQ(dram.request(0x0, false, 0, 0), 19u);
    // Same row again: no open-row hit under auto-precharge.
    EXPECT_EQ(dram.request(0x0, false, 100, 100), 19u);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.rowEmpties(), 2u);
}

TEST_F(DramTest, BoundedWindowDelaysAdmission)
{
    // windowDepth = 2: the third same-cycle request waits for the first
    // completion (cycle 19) before even starting its bank access.
    EXPECT_EQ(dram_.request(0x0, false, 0, 0), 19u);
    EXPECT_EQ(dram_.request(1024, false, 0, 0), 23u);
    EXPECT_EQ(dram_.inFlight(), 2u);

    const Cycle third = dram_.request(2 * 1024, false, 0, 0);
    EXPECT_EQ(dram_.queueFullWaits(), 1u);
    // Admitted at 19, row conflict on bank 0 (row 0 open, row 1 wanted):
    // 19 + 10+10+5 = 44 CAS done, bus free at 23 -> done 48.
    EXPECT_EQ(third, 48u);

    // Once completions pass, the window admits immediately again.
    EXPECT_GT(dram_.request(1024 + 0x40, false, 1000, 1000), 0u);
    EXPECT_EQ(dram_.queueFullWaits(), 1u);
}

TEST_F(DramTest, PrefetchesDropOnFullWindowAndChargeNothing)
{
    EXPECT_TRUE(dram_.tryPrefetch(0x0, 0, 0));
    EXPECT_TRUE(dram_.tryPrefetch(1024, 0, 0));
    EXPECT_FALSE(dram_.tryPrefetch(2 * 1024, 0, 0));
    EXPECT_EQ(dram_.prefetchDrops(), 1u);

    // Prefetch service is never charged to the attribution buckets...
    const auto idleOnly = dram_.stallCycles(100);
    EXPECT_EQ(idleOnly[std::size_t(MemQueueStall::Idle)], 100u);

    // ...but it does occupy the bank: a demand request waiting behind a
    // prefetch-busy bank is charged BankBusy (the first *charged* cause).
    StatGroup g("pf");
    DramController dram(tinyDram(), g);
    ASSERT_TRUE(dram.tryPrefetch(0x0, 0, 0));   // bank 0 busy until 15
    EXPECT_EQ(dram.request(2 * 1024, false, 5, 5), 39u);
    const auto buckets = dram.stallCycles(100);
    EXPECT_EQ(buckets[std::size_t(MemQueueStall::BankBusy)], 10u);
}

TEST_F(DramTest, StallAttributionSumsToElapsedCycles)
{
    dram_.request(0x0, false, 0, 0);
    dram_.request(1024, false, 0, 0);
    dram_.request(2 * 1024, false, 3, 3);
    dram_.request(3 * 1024, false, 3, 3);
    dram_.request(0x80, false, 400, 400);

    for (const Cycle end : {500u, 1000u}) {
        const auto buckets = dram_.stallCycles(end);
        const std::uint64_t sum =
            std::accumulate(buckets.begin(), buckets.end(),
                            std::uint64_t{0});
        EXPECT_EQ(sum, end) << "attribution must cover every cycle";
    }
    // Charged (non-idle) cycles exist and are identical across dumps.
    const auto b = dram_.stallCycles(1000);
    EXPECT_GT(b[std::size_t(MemQueueStall::BankPrep)], 0u);
    EXPECT_GT(b[std::size_t(MemQueueStall::DataBurst)], 0u);
}

TEST_F(DramTest, ResetMeasurementRebasesTheAttributionEpoch)
{
    dram_.request(0x0, false, 0, 0);
    dram_.request(2 * 1024, false, 1, 1);
    dram_.resetMeasurement(50);
    // In-flight service spilling past the epoch stays charged; cycles
    // before it are dropped, and the window re-anchors at the epoch.
    const auto buckets = dram_.stallCycles(200);
    const std::uint64_t sum = std::accumulate(
        buckets.begin(), buckets.end(), std::uint64_t{0});
    EXPECT_EQ(sum, 150u);
}

TEST_F(DramTest, RebaseTimingClearsPendingEventsButKeepsOpenRows)
{
    // Saturate far in the future: full window, busy banks and bus.
    dram_.request(0x0, false, 1000000, 1000000);
    dram_.request(1024, false, 1000000, 1000000);
    EXPECT_EQ(dram_.inFlight(), 2u);

    dram_.rebaseTiming();
    EXPECT_EQ(dram_.inFlight(), 0u);

    // No phantom busy state: a request at cycle 0 is admitted instantly
    // and, the row still being open (warmed state survives the rebase),
    // pays only CAS + burst.
    EXPECT_EQ(dram_.request(0x40, false, 0, 0), 9u);
    EXPECT_EQ(dram_.queueFullWaits(), 0u);
}

TEST_F(DramTest, CheckpointRoundTripContinuesBitExactly)
{
    dram_.request(0x0, false, 0, 0);
    dram_.request(1024, false, 0, 0);
    dram_.request(2 * 1024, false, 5, 5);
    dram_.resetMeasurement(10);

    ckpt::Writer w;
    dram_.snapshot(w);
    ckpt::Reader r(w.buffer(), "<dram>");
    StatGroup g("copy");
    DramController copy(tinyDram(), g);
    copy.restore(r);

    EXPECT_EQ(copy.requests(), dram_.requests());
    EXPECT_EQ(copy.rowHits(), dram_.rowHits());
    EXPECT_EQ(copy.rowConflicts(), dram_.rowConflicts());
    EXPECT_EQ(copy.inFlight(), dram_.inFlight());
    EXPECT_EQ(copy.stallCycles(1000), dram_.stallCycles(1000));

    // Identical continuations: same future request stream, same
    // latencies and same attribution on both sides.
    for (const Addr a : {Addr{3 * 1024}, Addr{0x40}, Addr{1024 + 0x80}}) {
        EXPECT_EQ(copy.request(a, false, 50, 50),
                  dram_.request(a, false, 50, 50));
    }
    EXPECT_EQ(copy.stallCycles(2000), dram_.stallCycles(2000));

    std::ostringstream ja, jb;
    JsonWriter wa(ja, JsonWriter::Style::Spaced);
    JsonWriter wb(jb, JsonWriter::Style::Spaced);
    StatGroup empty("e");
    dram_.dumpJson(wa, empty, 2000);
    copy.dumpJson(wb, empty, 2000);
    EXPECT_EQ(ja.str(), jb.str());
}

TEST_F(DramTest, RestoreRejectsBankCountMismatch)
{
    ckpt::Writer w;
    dram_.snapshot(w);
    DramParams p = tinyDram();
    p.banks = 4;
    StatGroup g("other");
    DramController other(p, g);
    ckpt::Reader r(w.buffer(), "<mismatch>");
    EXPECT_THROW(other.restore(r), std::exception);
}

} // namespace
} // namespace wsrs::memory
