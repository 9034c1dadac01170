/**
 * @file
 * Tests of the warm-up snapshot cache: build-once per key, hit/miss
 * telemetry, and the blob lifetime bounded by the requests declared with
 * expect(), alone and under SweepRunner (fresh and resumed sweeps).
 */
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/warmup_cache.h"
#include "src/common/log.h"
#include "src/runner/resume_journal.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/workload/profiles.h"

namespace wsrs::ckpt {
namespace {

TEST(WarmupCache, BuildsOncePerKeyAndCountsHits)
{
    WarmupCache cache;
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return std::string("blob");
    };
    const auto a = cache.getOrBuild(1, build);
    const auto b = cache.getOrBuild(1, build);
    const auto c = cache.getOrBuild(2, build);
    EXPECT_EQ(*a, "blob");
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(WarmupCache, BuilderFailureLeavesSlotRetryable)
{
    WarmupCache cache;
    EXPECT_THROW(cache.getOrBuild(
                     9, [&]() -> std::string { fatal("builder exploded"); }),
                 FatalError);
    const auto ok = cache.getOrBuild(9, [] { return std::string("second"); });
    EXPECT_EQ(*ok, "second");
}

TEST(WarmupCache, ReportsWhetherMemoryOrBuilderAnswered)
{
    WarmupCache cache;
    const auto builder = [] { return std::string("source"); };
    using Source = WarmupCache::Source;
    Source source = Source::Memory;
    cache.getOrBuild(5, builder, &source);
    EXPECT_EQ(source, Source::Built);
    EXPECT_EQ(*cache.getOrBuild(5, builder, &source), "source");
    EXPECT_EQ(source, Source::Memory);
    cache.getOrBuild(6, builder, &source);
    EXPECT_EQ(source, Source::Built);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(WarmupCache, FreesTheBlobAfterTheLastExpectedRequest)
{
    WarmupCache cache;
    cache.expect(3, 2);
    std::shared_ptr<const std::string> first =
        cache.getOrBuild(3, [] { return std::string("warm"); });
    const std::weak_ptr<const std::string> watch = first;
    first.reset();
    // One declared request is still to come: the cache keeps the blob.
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(cache.held(), 1u);

    std::shared_ptr<const std::string> last = cache.getOrBuild(
        3, []() -> std::string { ADD_FAILURE() << "rebuilt"; return ""; });
    EXPECT_EQ(*last, "warm");
    EXPECT_EQ(cache.held(), 0u);
    // The last caller's reference is now the only one.
    EXPECT_FALSE(watch.expired());
    last.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(WarmupCache, FourThreadsBuildOneKeyOnce)
{
    WarmupCache cache;
    cache.expect(11, 4);
    std::atomic<int> builds{0};
    std::vector<std::shared_ptr<const std::string>> got(4);
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&, t] {
            got[t] = cache.getOrBuild(11, [&] {
                ++builds;
                // Keep the build open so the other requests queue on it.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return std::string("shared");
            });
        });
    }
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.held(), 0u);
    const std::weak_ptr<const std::string> watch = got[0];
    for (const auto &blob : got)
        EXPECT_EQ(blob.get(), got[0].get());
    got.clear();
    EXPECT_TRUE(watch.expired());
}

TEST(WarmupCache, ThrowingBuilderConsumesItsRequest)
{
    WarmupCache cache;
    const auto explode = []() -> std::string { fatal("builder exploded"); };
    const auto ok = [] { return std::string("built"); };

    // Not the last declared request: the next one builds the blob.
    cache.expect(5, 2);
    EXPECT_THROW(cache.getOrBuild(5, explode), FatalError);
    EXPECT_EQ(cache.held(), 1u);
    EXPECT_EQ(*cache.getOrBuild(5, ok), "built");
    EXPECT_EQ(cache.held(), 0u);

    // The last declared request: the slot is gone, and a later request
    // still builds.
    cache.expect(6, 1);
    EXPECT_THROW(cache.getOrBuild(6, explode), FatalError);
    EXPECT_EQ(cache.held(), 0u);
    WarmupCache::Source source = WarmupCache::Source::Memory;
    EXPECT_EQ(*cache.getOrBuild(6, ok, &source), "built");
    EXPECT_EQ(source, WarmupCache::Source::Built);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), 0u);
}

sim::SimConfig
tinyConfig()
{
    sim::SimConfig base;
    base.warmupUops = 2000;
    base.measureUops = 1000;
    return base;
}

// A resumed sweep declares only the jobs it will run: the recovered ones
// request no blob, so none stays cached for them.
TEST(WarmupCache, ResumedSweepCountsOnlyPendingJobs)
{
    const std::vector<runner::SweepJob> jobs = runner::SweepRunner::crossProduct(
        {workload::findProfile("gzip"), workload::findProfile("swim"),
         workload::findProfile("mcf")},
        {"RR-256", "WSRS-RC-512"}, tinyConfig());
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("wsrs_warm_" + std::to_string(::getpid()) + ".jrn"))
            .string();
    {
        // gzip's two jobs and swim's first are already done.
        runner::ResumeJournal journal(path, runner::sweepKeyHash(jobs),
                                      jobs.size(), false);
        for (std::size_t i = 0; i < 3; ++i) {
            runner::SweepOutcome done;
            done.ok = true;
            done.results.benchmark = jobs[i].profile.name;
            journal.record(i, done);
        }
    }
    runner::SweepRunner::Options opt;
    opt.threads = 2;
    opt.reuseWarmup = true;
    opt.journalPath = path;
    opt.resume = true;
    runner::SweepRunner sweep(opt);
    const auto out = sweep.run(jobs);
    std::remove(path.c_str());
    for (std::size_t i = 3; i < jobs.size(); ++i)
        EXPECT_TRUE(out[i].ok) << out[i].error;
    const auto &t = sweep.telemetry();
    EXPECT_EQ(t.skippedRuns, 3u);
    EXPECT_EQ(t.warmupMisses, 2u);  // swim and mcf
    EXPECT_EQ(t.warmupHits, 1u);    // mcf's second machine
    EXPECT_EQ(t.warmupHeld, 0u);
}

// The Figure-4 matrix (12 benchmarks x 6 machines) builds each benchmark's
// blob once, restores it for the other 60 jobs, and ends holding none.
TEST(WarmupCache, Figure4SweepBuildsTwelveAndHitsSixty)
{
    runner::SweepRunner::Options opt;
    opt.threads = 4;
    opt.reuseWarmup = true;
    runner::SweepRunner sweep(opt);
    const auto out = sweep.run(runner::SweepRunner::crossProduct(
        workload::allProfiles(), sim::figure4Presets(), tinyConfig()));
    ASSERT_EQ(out.size(), 72u);
    for (const auto &o : out)
        EXPECT_TRUE(o.ok) << o.error;
    EXPECT_EQ(sweep.telemetry().warmupMisses, 12u);
    EXPECT_EQ(sweep.telemetry().warmupHits, 60u);
    EXPECT_EQ(sweep.telemetry().warmupHeld, 0u);
}

} // namespace
} // namespace wsrs::ckpt
