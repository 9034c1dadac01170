/** @file Unit tests for stall-cause attribution and interval sampling. */
#include <gtest/gtest.h>

#include <sstream>

#include "src/obs/pipeline_stats.h"
#include "tests/support/json_error.h"

namespace wsrs::obs {
namespace {

constexpr unsigned kClusters = 4;

std::uint64_t
bucketTotal(const Histogram &h)
{
    std::uint64_t total = h.overflow();
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        total += h.bucket(i);
    return total;
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
    StatGroup g("core");
    PipelineStats ps(g, kClusters);
    drive(ps, 1000);
    // The acceptance invariant: every cycle lands in exactly one bucket,
    // so the per-stage totals equal the cycle count.
    for (unsigned c = 0; c < kClusters; ++c)
        EXPECT_EQ(bucketTotal(ps.issueStall(c)), 1000u) << "cluster " << c;
    EXPECT_EQ(bucketTotal(ps.renameStall()), 1000u);
    EXPECT_EQ(bucketTotal(ps.commitStall()), 1000u);
    EXPECT_EQ(ps.occupancySum(0), 3000u);
    EXPECT_EQ(ps.occupancySum(3), 7000u);
}

TEST(PipelineStats, WakeupLatencyOverflowsPastTheTopBucket)
{
    StatGroup g("core");
    PipelineStats ps(g, kClusters);
    ps.recordWakeupLatency(0);
    ps.recordWakeupLatency(PipelineStats::kWakeupBuckets - 1);
    ps.recordWakeupLatency(1000);
    EXPECT_EQ(ps.wakeupLatency().bucket(0), 1u);
    EXPECT_EQ(ps.wakeupLatency().bucket(PipelineStats::kWakeupBuckets - 1),
              1u);
    EXPECT_EQ(ps.wakeupLatency().overflow(), 1u);
    EXPECT_EQ(ps.wakeupLatency().samples(), 3u);
}

TEST(PipelineStats, IntervalSamplerHonorsThePeriod)
{
    StatGroup g("core");
    PipelineStats ps(g, kClusters);
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

TEST(PipelineStats, DisabledSamplerRecordsNothing)
{
    StatGroup g("core");
    PipelineStats ps(g, kClusters);
    drive(ps, 100);
    EXPECT_TRUE(ps.intervals().empty());
}

TEST(PipelineStats, ResetClearsMeasurementsButKeepsThePeriod)
{
    StatGroup g("core");
    PipelineStats ps(g, kClusters);
    ps.enableIntervals(10);
    drive(ps, 50);
    ps.recordWakeupLatency(5);
    ps.reset();
    EXPECT_EQ(ps.intervalPeriod(), 10u);
    EXPECT_TRUE(ps.intervals().empty());
    EXPECT_EQ(ps.wakeupLatency().samples(), 0u);
    EXPECT_EQ(bucketTotal(ps.issueStall(0)), 0u);
    EXPECT_EQ(ps.occupancySum(0), 0u);
    // The countdown restarts from a full period after reset.
    drive(ps, 10);
    EXPECT_EQ(ps.intervals().size(), 1u);
}

TEST(PipelineStats, DumpJsonIsStrictlyParseable)
{
    StatGroup g("core");
    PipelineStats ps(g, kClusters);
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

TEST(PipelineStats, StatsRegisterInTheOwningGroup)
{
    StatGroup g("core");
    PipelineStats ps(g, 2);
    ps.recordIssue(0, IssueStall::Issued, 1);
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Spaced);
    g.dumpJson(w);
    const std::string j = os.str();
    EXPECT_EQ(test::jsonError(j), "");
    EXPECT_NE(j.find("\"core.issue_stall_c0\""), std::string::npos);
    EXPECT_NE(j.find("\"core.issue_stall_c1\""), std::string::npos);
    EXPECT_NE(j.find("\"core.rename_stall\""), std::string::npos);
    EXPECT_NE(j.find("\"core.commit_stall\""), std::string::npos);
    EXPECT_NE(j.find("\"core.wakeup_latency\""), std::string::npos);
}

} // namespace
} // namespace wsrs::obs
