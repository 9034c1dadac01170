/** @file Unit tests for stall-cause attribution and interval sampling. */
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "src/common/log.h"
#include "src/obs/pipeline_stats.h"
#include "tests/support/json_error.h"

namespace wsrs::obs {
namespace {

constexpr unsigned kClusters = 4;

template <typename Counts>
std::uint64_t
bucketTotal(const Counts &counts)
{
    return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

std::string
dump(const PipelineStats &ps)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Spaced);
    ps.dumpJson(w);
    return os.str();
}

std::string
snapshotBytes(const PipelineStats &ps)
{
    ckpt::Writer w;
    ps.snapshot(w);
    return w.buffer();
}

/** Drive @p cycles cycles of one-cause-per-stage recording. */
void
drive(PipelineStats &ps, unsigned cycles)
{
    const unsigned occupancy[kClusters] = {3, 1, 0, 7};
    for (unsigned cyc = 0; cyc < cycles; ++cyc) {
        for (ClusterId c = 0; c < kClusters; ++c)
            ps.recordIssue(
                c,
                static_cast<IssueStall>(
                    (cyc + c) % unsigned(IssueStall::kCount)),
                occupancy[c]);
        ps.recordRename(static_cast<RenameStall>(
            cyc % unsigned(RenameStall::kCount)));
        ps.recordCommit(static_cast<CommitStall>(
            cyc % unsigned(CommitStall::kCount)));
        ps.endCycle(cyc, 2 * cyc, occupancy);
    }
}

TEST(PipelineStats, ExactlyOneCausePerStagePerCycle)
{
    PipelineStats ps(kClusters);
    drive(ps, 1000);
    // The acceptance invariant: every cycle lands in exactly one bucket,
    // so the per-stage totals equal the cycle count.
    for (unsigned c = 0; c < kClusters; ++c)
        EXPECT_EQ(bucketTotal(ps.issueStall(c)), 1000u) << "cluster " << c;
    EXPECT_EQ(bucketTotal(ps.renameStall()), 1000u);
    EXPECT_EQ(bucketTotal(ps.commitStall()), 1000u);
    EXPECT_EQ(ps.occupancySum(0), 3000u);
    EXPECT_EQ(ps.occupancySum(3), 7000u);
    EXPECT_EQ(ps.windowOccupancySum(), 11000u);
}

TEST(PipelineStats, RenameStallGroupsFollowTheResourceThatRanOut)
{
    // Cause k is counted 2^k times, so each group's sum names its causes.
    PipelineStats::Counts<RenameStall> counts{};
    for (std::size_t k = 0; k < counts.size(); ++k)
        counts[k] = std::uint64_t{1} << k;
    const auto bit = [](RenameStall c) {
        return std::uint64_t{1} << static_cast<unsigned>(c);
    };
    const RenameStallGroups g = groupRenameStalls(counts);
    EXPECT_EQ(g.freeReg, bit(RenameStall::SubsetFull) |
                             bit(RenameStall::PhysRegExhausted));
    EXPECT_EQ(g.window, bit(RenameStall::ClusterWindowFull));
    EXPECT_EQ(g.rob, bit(RenameStall::RobFull));
    EXPECT_EQ(g.lsq, bit(RenameStall::LsqFull));
}

TEST(PipelineStats, WakeupLatencyOverflowsPastTheTopBucket)
{
    PipelineStats ps(kClusters);
    ps.recordWakeupLatency(0);
    ps.recordWakeupLatency(PipelineStats::kWakeupBuckets - 1);
    ps.recordWakeupLatency(1000);
    EXPECT_EQ(ps.wakeupLatency()[0], 1u);
    EXPECT_EQ(ps.wakeupLatency()[PipelineStats::kWakeupBuckets - 1], 1u);
    EXPECT_EQ(ps.wakeupOverflow(), 1u);
    EXPECT_EQ(bucketTotal(ps.wakeupLatency()), 2u);
}

TEST(PipelineStats, OverflowSampleCountsInDumpedSamplesAndMean)
{
    PipelineStats ps(kClusters);
    ps.recordWakeupLatency(2);
    ps.recordWakeupLatency(PipelineStats::kWakeupBuckets - 1);
    ps.recordWakeupLatency(1000);
    const JsonValue doc = parseJson(dump(ps), "test");
    const JsonValue &h = doc.get("wakeup_latency");
    EXPECT_EQ(h.get("buckets").asArray().size(),
              PipelineStats::kWakeupBuckets);
    EXPECT_EQ(h.getInt("overflow", -1), 1);
    EXPECT_EQ(h.getInt("samples", -1), 3);
    // The document prints six significant digits.
    EXPECT_NEAR(h.get("mean").asDouble(), (2.0 + 31 + 1000) / 3, 1e-3);
    // A stage histogram never overflows: every cycle has a cause.
    const JsonValue &rename = doc.get("rename_stall");
    EXPECT_EQ(rename.getInt("overflow", -1), 0);
    EXPECT_EQ(rename.getInt("samples", -1), 0);
    EXPECT_EQ(rename.get("mean").asDouble(), 0.0);
}

TEST(PipelineStats, SnapshotRestoreSnapshotIsByteIdenticalWithOverflow)
{
    PipelineStats ps(kClusters);
    ps.enableIntervals(7);
    drive(ps, 50);
    ps.recordWakeupLatency(4);
    ps.recordWakeupLatency(PipelineStats::kWakeupBuckets);
    ps.recordWakeupLatency(12345);
    const std::string bytes = snapshotBytes(ps);

    PipelineStats back(kClusters);
    back.enableIntervals(7);
    ckpt::Reader r(bytes, "<test>");
    back.restore(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back.wakeupOverflow(), 2u);
    EXPECT_EQ(snapshotBytes(back), bytes);
    EXPECT_EQ(dump(back), dump(ps));
}

TEST(PipelineStats, RestoreRejectsInconsistentHistograms)
{
    PipelineStats ps(kClusters);
    drive(ps, 20);
    ps.recordWakeupLatency(1000);
    const std::string bytes = snapshotBytes(ps);

    // Layout: u32 cluster count, the buckets of every stall-cause
    // histogram, then the wake-up buckets, overflow count and overflow sum.
    const std::size_t wakeTail =
        4 + 8 * (kClusters * std::size_t(IssueStall::kCount) +
                 std::size_t(RenameStall::kCount) +
                 std::size_t(CommitStall::kCount) +
                 PipelineStats::kWakeupBuckets);
    const auto u64At = [&](std::size_t at) {
        return ckpt::loadLe(bytes.data() + at, 8);
    };
    const auto withU64 = [](std::string b, std::size_t at, std::uint64_t v) {
        ckpt::storeLe(b.data() + at, v, 8);
        return b;
    };
    ASSERT_EQ(u64At(wakeTail), 1u);        // the one overflow sample
    ASSERT_EQ(u64At(wakeTail + 8), 1000u); // and its wait

    const struct
    {
        const char *what;
        std::string bytes;
        const char *error;
    } cases[] = {
        {"wake-up overflow sum below the top",
         withU64(bytes, wakeTail + 8, PipelineStats::kWakeupBuckets - 1),
         "disagrees with its overflow count"},
        {"wake-up overflow count above its sum",
         withU64(bytes, wakeTail, 1000 / PipelineStats::kWakeupBuckets + 1),
         "disagrees with its overflow count"},
        {"wake-up overflow sum without overflow",
         withU64(bytes, wakeTail, 0), "disagrees with its overflow count"},
    };
    for (const auto &c : cases) {
        PipelineStats back(kClusters);
        ckpt::Reader r(c.bytes, "<reject>");
        try {
            back.restore(r);
            ADD_FAILURE() << c.what << ": restored";
        } catch (const IoError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(c.error), std::string::npos)
                << c.what << ": " << msg;
            EXPECT_NE(msg.find("byte offset"), std::string::npos)
                << c.what << ": " << msg;
        }
    }
}

TEST(PipelineStats, IntervalSamplerHonorsThePeriod)
{
    PipelineStats ps(kClusters);
    ps.enableIntervals(10);
    drive(ps, 95);
    const auto &samples = ps.intervals();
    ASSERT_EQ(samples.size(), 9u);  // cycles 9, 19, ..., 89
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i].cycle, 10 * (i + 1) - 1);
        EXPECT_EQ(samples[i].committed, 2 * samples[i].cycle);
        EXPECT_EQ(samples[i].occupancy[3], 7u);
    }
}

TEST(PipelineStats, CreditQuiescentEqualsRecordingEachCycle)
{
    // Six repeated cycles recorded one by one, and credited in one call,
    // leave the same counts, sums and sampler position.
    const IssueStall issue[kClusters] = {
        IssueStall::EmptyCluster, IssueStall::ResourceBusy,
        IssueStall::ForwardWait, IssueStall::NoReadyUop};
    const unsigned occupancy[kClusters] = {0, 9, 4, 2};
    PipelineStats::Counts<RenameStall> rename{};
    rename[static_cast<std::size_t>(RenameStall::ClusterWindowFull)] = 4;
    rename[static_cast<std::size_t>(RenameStall::SubsetFull)] = 2;

    PipelineStats each(kClusters), bulk(kClusters);
    for (PipelineStats *ps : {&each, &bulk}) {
        ps->enableIntervals(10);
        drive(*ps, 3);
        EXPECT_EQ(ps->cyclesToSample(), 7u);
    }
    for (unsigned cyc = 3; cyc < 9; ++cyc) {
        for (ClusterId c = 0; c < kClusters; ++c)
            each.recordIssue(c, issue[c], occupancy[c]);
        each.recordRename(cyc < 7 ? RenameStall::ClusterWindowFull
                                  : RenameStall::SubsetFull);
        each.recordCommit(CommitStall::HeadExecuting);
        each.endCycle(cyc, 6, occupancy);
    }
    bulk.creditQuiescent(6, issue, occupancy, rename,
                         CommitStall::HeadExecuting);
    EXPECT_EQ(bulk.cyclesToSample(), 1u);
    EXPECT_TRUE(bulk.intervals().empty());
    EXPECT_EQ(snapshotBytes(each), snapshotBytes(bulk));

    // The next cycle takes the sample in both.
    for (PipelineStats *ps : {&each, &bulk})
        ps->endCycle(9, 6, occupancy);
    ASSERT_EQ(bulk.intervals().size(), 1u);
    EXPECT_EQ(bulk.intervals()[0].cycle, 9u);
    EXPECT_EQ(dump(each), dump(bulk));
}

TEST(PipelineStats, DisabledSamplerRecordsNothing)
{
    PipelineStats ps(kClusters);
    drive(ps, 100);
    EXPECT_TRUE(ps.intervals().empty());
}

TEST(PipelineStats, ResetClearsMeasurementsButKeepsThePeriod)
{
    PipelineStats ps(kClusters);
    ps.enableIntervals(10);
    drive(ps, 50);
    ps.recordWakeupLatency(5);
    ps.recordWakeupLatency(500);
    ps.reset();
    EXPECT_EQ(ps.intervalPeriod(), 10u);
    EXPECT_TRUE(ps.intervals().empty());
    EXPECT_EQ(bucketTotal(ps.wakeupLatency()), 0u);
    EXPECT_EQ(ps.wakeupOverflow(), 0u);
    EXPECT_EQ(bucketTotal(ps.issueStall(0)), 0u);
    EXPECT_EQ(ps.occupancySum(0), 0u);
    // The countdown restarts from a full period after reset.
    drive(ps, 10);
    EXPECT_EQ(ps.intervals().size(), 1u);
}

TEST(PipelineStats, DumpJsonIsStrictlyParseable)
{
    PipelineStats ps(kClusters);
    ps.enableIntervals(10);
    drive(ps, 100);
    ps.recordWakeupLatency(3);
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Spaced);
    ps.dumpJson(w);
    const std::string j = os.str();
    EXPECT_EQ(test::jsonError(j), "");
    EXPECT_NE(j.find("\"stall_causes\""), std::string::npos);
    EXPECT_NE(j.find("\"intercluster-forward-wait\""), std::string::npos);
    EXPECT_NE(j.find("\"intervals\""), std::string::npos);
    EXPECT_NE(j.find("\"period\": 10"), std::string::npos);
}

} // namespace
} // namespace wsrs::obs
