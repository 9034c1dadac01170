/**
 * @file
 * Determinism contract of the parallel sweep runner: a {profile x config}
 * matrix must produce bit-identical SimResults regardless of worker-thread
 * count or job scheduling.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

namespace wsrs::runner {
namespace {

sim::SimConfig
quickConfig(std::uint64_t seed = 0)
{
    sim::SimConfig cfg;
    cfg.warmupUops = 2000;
    cfg.measureUops = 10000;
    cfg.seed = seed;
    return cfg;
}

std::vector<SweepJob>
smallMatrix(std::uint64_t seed = 0)
{
    return SweepRunner::crossProduct(
        {workload::findProfile("gzip"), workload::findProfile("swim"),
         workload::findProfile("mcf")},
        {"RR-256", "WSRS-RC-512", "WSRS-RM-512"}, quickConfig(seed));
}

void
expectIdentical(const sim::SimResults &a, const sim::SimResults &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.committed, b.stats.committed);
    EXPECT_EQ(a.stats.branches, b.stats.branches);
    EXPECT_EQ(a.stats.mispredicts, b.stats.mispredicts);
    EXPECT_EQ(a.stats.loadForwards, b.stats.loadForwards);
    EXPECT_EQ(a.stats.unbalancedGroups, b.stats.unbalancedGroups);
    EXPECT_EQ(a.stats.perCluster, b.stats.perCluster);
    EXPECT_EQ(a.stats.issueWidthHist, b.stats.issueWidthHist);
    EXPECT_EQ(a.statsJson, b.statsJson);
    // Bit-identical, not merely approximately equal.
    EXPECT_EQ(std::memcmp(&a.ipc, &b.ipc, sizeof a.ipc), 0);
    EXPECT_EQ(std::memcmp(&a.l1MissRate, &b.l1MissRate, sizeof a.l1MissRate),
              0);
}

TEST(SweepRunner, CrossProductIsRowMajor)
{
    const auto jobs = smallMatrix();
    ASSERT_EQ(jobs.size(), 9u);
    EXPECT_EQ(jobs[0].profile.name, "gzip");
    EXPECT_EQ(jobs[1].profile.name, "gzip");
    EXPECT_EQ(jobs[3].profile.name, "swim");
    EXPECT_EQ(jobs[4].config.core.name, "WSRS-RC-512");
    EXPECT_EQ(jobs[8].profile.name, "mcf");
    EXPECT_EQ(jobs[8].config.core.name, "WSRS-RM-512");
}

TEST(SweepRunner, MatchesDirectSimulation)
{
    const auto jobs = smallMatrix();
    const auto outcomes = SweepRunner().run(jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        const sim::SimResults direct =
            sim::runSimulation(jobs[i].profile, jobs[i].config);
        expectIdentical(outcomes[i].results, direct);
    }
}

TEST(SweepRunner, SerialAndThreadedAreBitIdentical)
{
    const auto jobs = smallMatrix(7);

    SweepRunner::Options serial;
    serial.threads = 1;
    const auto ref = SweepRunner(serial).run(jobs);

    for (unsigned threads : {2u, 4u, 8u}) {
        SweepRunner::Options opt;
        opt.threads = threads;
        const auto out = SweepRunner(opt).run(jobs);
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) + " job " +
                         std::to_string(i));
            ASSERT_TRUE(out[i].ok) << out[i].error;
            expectIdentical(out[i].results, ref[i].results);
        }
    }
}

TEST(SweepRunner, DistinctSeedsProduceDistinctResults)
{
    const auto a = SweepRunner().run(smallMatrix(1));
    const auto b = SweepRunner().run(smallMatrix(2));
    ASSERT_TRUE(a[0].ok && b[0].ok);
    // Different trace seeds must actually change the simulated stream.
    EXPECT_NE(a[0].results.stats.cycles, b[0].results.stats.cycles);
}

TEST(SweepRunner, ReportsProgressInOrderOfCompletionWithStableIndices)
{
    const auto jobs = smallMatrix();
    std::vector<bool> seen(jobs.size(), false);
    std::atomic<std::size_t> events{0};

    SweepRunner::Options opt;
    opt.threads = 4;
    opt.onEvent = [&](const SweepEvent &ev) {
        ASSERT_LT(ev.index, seen.size());
        EXPECT_FALSE(seen[ev.index]);  // Each job completes exactly once.
        seen[ev.index] = true;
        EXPECT_EQ(ev.total, jobs.size());
        EXPECT_EQ(ev.completed, events.fetch_add(1) + 1);
        ASSERT_NE(ev.outcome, nullptr);
        EXPECT_TRUE(ev.outcome->ok);
    };
    SweepRunner(opt).run(jobs);
    EXPECT_EQ(events.load(), jobs.size());
}

TEST(SweepRunner, JobErrorIsCapturedNotFatal)
{
    auto jobs = smallMatrix();
    jobs[1].config.core.clusterWindow = 0;  // Core construction fatals.
    const auto out = SweepRunner().run(jobs);
    EXPECT_FALSE(out[1].ok);
    EXPECT_FALSE(out[1].error.empty());
    // Neighbours are unaffected.
    EXPECT_TRUE(out[0].ok);
    EXPECT_TRUE(out[2].ok);
}

TEST(SweepRunner, EffectiveThreadsRespectsOptionAndJobCount)
{
    SweepRunner::Options opt;
    opt.threads = 3;
    EXPECT_EQ(SweepRunner(opt).effectiveThreads(100), 3u);
    EXPECT_LE(SweepRunner(opt).effectiveThreads(2), 2u);  // Never idle pool.
    opt.threads = 1;
    EXPECT_EQ(SweepRunner(opt).effectiveThreads(100), 1u);
    EXPECT_GE(SweepRunner().effectiveThreads(100), 1u);
}

} // namespace
} // namespace wsrs::runner
