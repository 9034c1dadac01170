#include "sweep_runner.h"

#include <atomic>
#include <memory>
#include <thread>

#include "src/ckpt/warmup_cache.h"
#include "src/runner/job_exec.h"
#include "src/runner/sweep_merge.h"
#include "src/sim/presets.h"
#include "src/sim/warmup.h"

namespace wsrs::runner {

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options options) : options_(std::move(options)) {}

unsigned
SweepRunner::effectiveThreads(std::size_t num_jobs) const
{
    unsigned n = options_.threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    if (num_jobs < n)
        n = static_cast<unsigned>(num_jobs);
    return n > 0 ? n : 1;
}

std::vector<SweepJob>
SweepRunner::crossProduct(
    const std::vector<workload::BenchmarkProfile> &profiles,
    const std::vector<std::string> &machine_labels,
    const sim::SimConfig &base)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(profiles.size() * machine_labels.size());
    for (const auto &profile : profiles) {
        for (const auto &label : machine_labels) {
            SweepJob job;
            job.profile = profile;
            job.config = base;
            job.config.core = sim::findPreset(label);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<SweepJob>
SweepRunner::crossProduct(
    const std::vector<workload::BenchmarkProfile> &profiles,
    const std::vector<sim::SimConfig> &configs)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(profiles.size() * configs.size());
    for (const auto &profile : profiles) {
        for (const auto &config : configs) {
            SweepJob job;
            job.profile = profile;
            job.config = config;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    telemetry_ = Telemetry{};
    telemetry_.warmupReuse = options_.reuseWarmup;
    if (jobs.empty())
        return {};

    SweepMerge merge(jobs, options_.journalPath, options_.resume,
                     options_.onEvent, options_.spans);
    telemetry_.resumed = merge.resumed();
    telemetry_.skippedRuns = merge.recoveredCount();

    ckpt::WarmupCache warmups;
    JobContext ctx;
    ctx.warmups = &warmups;
    ctx.reuseWarmup = options_.reuseWarmup;
    std::unique_ptr<RunnerMetrics> metrics;
    if (options_.metrics) {
        metrics = std::make_unique<RunnerMetrics>(*options_.metrics);
        ctx.metrics = metrics.get();
    }
    // No lease layer here: warmup/simulate spans nest straight into the
    // job root span the merge opened.
    ctx.spans = options_.spans;

    const std::vector<std::uint64_t> &pending = merge.pending();
    // Each warm-up blob is freed once the last pending job needing it has
    // restored from it; recovered jobs request none.
    for (const std::uint64_t i : pending)
        if (usesWarmupBlob(jobs[i], ctx))
            warmups.expect(
                sim::warmupKeyHash(jobs[i].profile, jobs[i].config));
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (;;) {
            const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= pending.size())
                return;
            const std::size_t i = pending[k];
            merge.accept(i, executeJob(jobs[i], ctx, JobTelemetry{i, 0, 0}));
        }
    };

    const unsigned threads = effectiveThreads(pending.size());
    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    telemetry_.warmupHits = warmups.hits();
    telemetry_.warmupMisses = warmups.misses();
    telemetry_.warmupHeld = warmups.held();
    return merge.take();
}

} // namespace wsrs::runner
