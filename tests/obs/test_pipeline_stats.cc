/** @file Unit tests for stall-cause attribution and interval sampling. */
#include <gtest/gtest.h>

#include <cstring>
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

    // Layout: u32 cluster count, then per histogram a u64 bucket count,
    // the buckets, overflow, samples and the d64 sum.
    const auto histBytes = [](std::size_t buckets) {
        return 8 + 8 * buckets + 24;
    };
    constexpr std::size_t kCauses = std::size_t(IssueStall::kCount);
    const std::size_t issue0 = 4;
    const std::size_t wakeup = 4 + kClusters * histBytes(kCauses) +
                               histBytes(std::size_t(RenameStall::kCount)) +
                               histBytes(std::size_t(CommitStall::kCount));
    const auto tailOf = [](std::size_t hist, std::size_t buckets) {
        return hist + 8 + 8 * buckets;  // offset of the overflow field
    };
    const auto u64At = [&](std::size_t at) {
        return ckpt::loadLe(bytes.data() + at, 8);
    };
    const auto d64At = [&](std::size_t at) {
        const std::uint64_t bits = u64At(at);
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    };
    const auto withU64 = [](std::string b, std::size_t at, std::uint64_t v) {
        ckpt::storeLe(b.data() + at, v, 8);
        return b;
    };
    const auto withD64 = [&](std::string b, std::size_t at, double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        return withU64(std::move(b), at, bits);
    };
    const std::size_t issueTail = tailOf(issue0, kCauses);
    const std::size_t wakeTail =
        tailOf(wakeup, PipelineStats::kWakeupBuckets);
    ASSERT_EQ(u64At(wakeTail), 1u);  // the one overflow sample

    // One overflow sample on a cause histogram, with samples and sum kept
    // consistent, so only the no-overflow rule can refuse it.
    std::string causeOverflow = withU64(bytes, issueTail, 1);
    causeOverflow =
        withU64(causeOverflow, issueTail + 8, u64At(issueTail + 8) + 1);
    causeOverflow =
        withD64(causeOverflow, issueTail + 16, d64At(issueTail + 16) + 100);

    const struct
    {
        const char *what;
        std::string bytes;
        const char *error;
    } cases[] = {
        {"samples", withU64(bytes, issueTail + 8, u64At(issueTail + 8) + 1),
         "samples disagree"},
        {"fractional sum", withD64(bytes, issueTail + 16, 0.5),
         "not a finite integer"},
        {"infinite sum", withD64(bytes, issueTail + 16, 1.0 / 0.0),
         "not a finite integer"},
        {"negative sum", withD64(bytes, issueTail + 16, -1.0),
         "not a finite integer"},
        {"sum below buckets", withD64(bytes, issueTail + 16, 0.0),
         "sum disagrees"},
        {"cause overflow", causeOverflow, "stall-cause histogram overflows"},
        {"wake-up overflow sum below the top",
         withD64(bytes, wakeTail + 16, d64At(wakeTail + 16) - 1000 + 31),
         "sum disagrees"},
        {"wake-up samples", withU64(bytes, wakeTail + 8, 2),
         "samples disagree"},
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
