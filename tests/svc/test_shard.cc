/**
 * @file
 * Shard planning and protocol payload codecs: contiguous
 * submission-ordered partitions, and exact round trips for every frame
 * body (including the binary JobDone journal codec).
 */
#include <gtest/gtest.h>

#include "src/ckpt/io.h"
#include "src/common/log.h"
#include "src/sim/presets.h"
#include "src/svc/proto.h"
#include "src/svc/shard.h"
#include "src/workload/profiles.h"

namespace wsrs::svc {
namespace {

TEST(Shard, PartitionsContiguouslyInOrder)
{
    const auto shards = planShards({0, 1, 2, 3, 4, 5, 6}, 3);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].id, 0u);
    EXPECT_EQ(shards[0].jobs, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(shards[1].jobs, (std::vector<std::uint64_t>{3, 4, 5}));
    EXPECT_EQ(shards[2].id, 2u);
    EXPECT_EQ(shards[2].jobs, (std::vector<std::uint64_t>{6}));
}

TEST(Shard, HandlesGapsFromRecoveredJobs)
{
    // The journal already holds jobs 1 and 3: only the holes are planned.
    const auto shards = planShards({0, 2, 4, 5}, 2);
    ASSERT_EQ(shards.size(), 2u);
    EXPECT_EQ(shards[0].jobs, (std::vector<std::uint64_t>{0, 2}));
    EXPECT_EQ(shards[1].jobs, (std::vector<std::uint64_t>{4, 5}));
}

TEST(Shard, EmptyPendingAndZeroSize)
{
    EXPECT_TRUE(planShards({}, 4).empty());
    const auto shards = planShards({7, 8}, 0); // 0 promotes to 1.
    ASSERT_EQ(shards.size(), 2u);
    EXPECT_EQ(shards[0].jobs.size(), 1u);
}

TEST(Proto, HexKeyRoundTripsEveryPattern)
{
    for (const std::uint64_t key :
         {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
        EXPECT_EQ(parseHexKey(hexKey(key), "test"), key);
        EXPECT_EQ(hexKey(key).size(), 16u);
    }
    EXPECT_THROW(parseHexKey("short", "test"), FatalError);
    EXPECT_THROW(parseHexKey("zzzzzzzzzzzzzzzz", "test"), FatalError);
}

TEST(Proto, HelloRoundTrip)
{
    const HelloInfo hello =
        parseHello(helloPayload(4242, 0xabcdef0123456789ull, 72));
    EXPECT_EQ(hello.role, "worker");
    EXPECT_EQ(hello.pid, 4242);
    EXPECT_EQ(hello.sweepKey, 0xabcdef0123456789ull);
    EXPECT_EQ(hello.jobs, 72u);
}

TEST(Proto, HelloAckCarriesTheRefusalReason)
{
    EXPECT_EQ(parseHelloAck(helloAckPayload(true, "")), "");
    const std::string why =
        parseHelloAck(helloAckPayload(false, "sweep key mismatch"));
    EXPECT_EQ(why, "sweep key mismatch");
}

TEST(Proto, LeaseAndShardDoneRoundTrip)
{
    Shard shard;
    shard.id = 5;
    shard.jobs = {10, 11, 12, 40};
    const LeaseInfo got = parseLease(leasePayload(shard, 2));
    EXPECT_EQ(got.shard.id, 5u);
    EXPECT_EQ(got.shard.jobs, shard.jobs);
    EXPECT_EQ(got.attempt, 2u);
    // Leases from before attempt-stamping default to attempt 1.
    EXPECT_EQ(parseLease("{\"shard\": 5, \"jobs\": [1]}").attempt, 1u);
    EXPECT_EQ(parseShardDone(shardDonePayload(5)), 5u);
}

TEST(Proto, JobDoneRoundTripsARealOutcome)
{
    // Run one tiny job so the outcome carries a fully populated
    // SimResults (stats JSON included), then round-trip it.
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("RR-256");
    cfg.warmupUops = 500;
    cfg.measureUops = 2000;
    runner::SweepOutcome out;
    out.ok = true;
    out.results = sim::runSimulation(workload::findProfile("gzip"), cfg);

    const JobDone done = decodeJobDone(encodeJobDone(17, out));
    EXPECT_EQ(done.index, 17u);
    ASSERT_TRUE(done.outcome.ok);
    EXPECT_EQ(done.outcome.results.stats.cycles, out.results.stats.cycles);
    EXPECT_EQ(done.outcome.results.statsJson, out.results.statsJson);
}

TEST(Proto, JobDoneRoundTripsAFailure)
{
    runner::SweepOutcome out;
    out.ok = false;
    out.error = "core construction failed";
    const JobDone done = decodeJobDone(encodeJobDone(3, out));
    EXPECT_EQ(done.index, 3u);
    EXPECT_FALSE(done.outcome.ok);
    EXPECT_EQ(done.outcome.error, "core construction failed");
}

TEST(Proto, JobDoneRejectsTrailingBytes)
{
    runner::SweepOutcome out;
    out.ok = false;
    out.error = "x";
    std::string wire = encodeJobDone(0, out);
    wire.push_back('!');
    EXPECT_THROW(decodeJobDone(wire), FatalError);
}

TEST(Proto, WorkerStatsRoundTrip)
{
    WorkerStatsInfo stats;
    stats.jobsRun = 9;
    stats.warmupHits = 7;
    stats.warmupMisses = 2;
    const WorkerStatsInfo got =
        parseWorkerStats(workerStatsPayload(stats));
    EXPECT_EQ(got.jobsRun, 9u);
    EXPECT_EQ(got.warmupHits, 7u);
    EXPECT_EQ(got.warmupMisses, 2u);
}

TEST(Proto, SpanBatchRejectsACountTheBytesCannotHold)
{
    // One empty-string event is the smallest encoding: 45 bytes.
    obs::SpanEvent e;
    e.job = 4;
    const std::string one = spanBatchPayload({e});
    ASSERT_EQ(one.size(), 8u + 45u);
    EXPECT_EQ(parseSpanBatch(one).at(0).job, 4u);

    // A count under the 2^20 cap but far beyond an 8-byte payload must
    // be refused before any event is allocated.
    ckpt::Writer w;
    w.u64(1u << 20);
    try {
        (void)parseSpanBatch(w.buffer());
        FAIL() << "oversized span count accepted";
    } catch (const IoError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "declares 1048576 events but only 0 bytes remain"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Proto, ErrorPayloadEscapesProperly)
{
    const std::string msg = "bad \"thing\"\nline two";
    EXPECT_EQ(parseErrorPayload(errorPayload(msg)), msg);
}

} // namespace
} // namespace wsrs::svc
