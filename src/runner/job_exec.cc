#include "job_exec.h"

#include <memory>

#include "src/ckpt/warmup_cache.h"
#include "src/common/log.h"
#include "src/sim/warmup.h"

namespace wsrs::runner {

RunnerMetrics::RunnerMetrics(obs::MetricsRegistry &r)
    : jobsExecuted(r.counter("wsrs_runner_jobs_total",
                             "Sweep jobs executed to completion")),
      jobFailures(r.counter("wsrs_runner_job_failures_total",
                            "Jobs whose outcome captured an error")),
      warmupHits(r.counter("wsrs_runner_warmup_hits_total",
                           "Warm-up snapshots restored from a cache")),
      warmupBuilds(r.counter("wsrs_runner_warmup_builds_total",
                             "Warm-up snapshots built from scratch")),
      jobMs(r.histogram("wsrs_runner_job_duration_ms",
                        "Wall time of one executeJob call",
                        obs::MetricsRegistry::latencyBucketsMs())),
      warmupMs(r.histogram("wsrs_runner_warmup_duration_ms",
                           "Warm-up snapshot acquire (hit or build)",
                           obs::MetricsRegistry::latencyBucketsMs())),
      simulateMs(r.histogram("wsrs_runner_simulate_duration_ms",
                             "Measured-slice simulation wall time",
                             obs::MetricsRegistry::latencyBucketsMs())),
      memRequests(r.counter("wsrs_mem_requests_total",
                            "DRAM demand requests across measured slices")),
      memRowHits(r.counter("wsrs_mem_row_hits_total",
                           "DRAM open-row hits across measured slices")),
      memRowConflicts(r.counter("wsrs_mem_row_conflicts_total",
                                "DRAM row conflicts across measured "
                                "slices")),
      memQueueFullWaits(r.counter("wsrs_mem_queue_full_waits_total",
                                  "DRAM requests delayed by a full "
                                  "in-flight window"))
{
}

bool
usesWarmupBlob(const SweepJob &job, const JobContext &ctx)
{
    return ctx.reuseWarmup && job.config.warmupUops > 0;
}

SweepOutcome
executeJob(const SweepJob &job, const JobContext &ctx,
           const JobTelemetry &tele)
{
    SweepOutcome out;
    const std::int64_t jobStartUs =
        (ctx.metrics || ctx.spans) ? obs::monotonicMicros() : 0;
    try {
        sim::SimConfig cfg = job.config;
        std::shared_ptr<const std::string> blob;
        if (usesWarmupBlob(job, ctx)) {
            if (!ctx.warmups)
                fatal("executeJob: reuseWarmup requires a warm-up cache");
            // One functional warm-up per key serves every machine config
            // of the benchmark; the blob stays alive for the duration of
            // this run.
            const std::int64_t warmupStartUs =
                jobStartUs ? obs::monotonicMicros() : 0;
            using Source = ckpt::WarmupCache::Source;
            Source source = Source::Built;
            blob = ctx.warmups->getOrBuild(
                sim::warmupKeyHash(job.profile, cfg),
                [&] { return sim::buildWarmupSnapshot(job.profile, cfg); },
                &source);
            cfg.warmupBlob = blob.get();
            if (jobStartUs) {
                const std::int64_t warmupEndUs = obs::monotonicMicros();
                const bool built = source == Source::Built;
                if (ctx.metrics) {
                    (built ? ctx.metrics->warmupBuilds
                           : ctx.metrics->warmupHits)
                        .add();
                    ctx.metrics->warmupMs.observe(static_cast<std::uint64_t>(
                        (warmupEndUs - warmupStartUs) / 1000));
                }
                if (ctx.spans)
                    ctx.spans->complete("warmup", tele.job, tele.attempt,
                                        tele.worker, warmupStartUs,
                                        warmupEndUs - warmupStartUs,
                                        built ? "build" : "hit");
            }
        }
        const std::int64_t simStartUs =
            jobStartUs ? obs::monotonicMicros() : 0;
        out.results = sim::runSimulation(job.profile, cfg);
        out.ok = true;
        if (jobStartUs) {
            const std::int64_t simEndUs = obs::monotonicMicros();
            if (ctx.metrics)
                ctx.metrics->simulateMs.observe(static_cast<std::uint64_t>(
                    (simEndUs - simStartUs) / 1000));
            if (ctx.spans)
                ctx.spans->complete("simulate", tele.job, tele.attempt,
                                    tele.worker, simStartUs,
                                    simEndUs - simStartUs);
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    if (jobStartUs) {
        if (ctx.metrics) {
            ctx.metrics->jobsExecuted.add();
            if (out.ok) {
                ctx.metrics->memRequests.add(out.results.mem.dramRequests);
                ctx.metrics->memRowHits.add(out.results.mem.dramRowHits);
                ctx.metrics->memRowConflicts.add(
                    out.results.mem.dramRowConflicts);
                ctx.metrics->memQueueFullWaits.add(
                    out.results.mem.dramQueueFullWaits);
            }
            if (!out.ok)
                ctx.metrics->jobFailures.add();
            ctx.metrics->jobMs.observe(static_cast<std::uint64_t>(
                (obs::monotonicMicros() - jobStartUs) / 1000));
        }
        if (ctx.spans && !out.ok)
            ctx.spans->instant("job-failed", tele.job, tele.attempt,
                               tele.worker, obs::monotonicMicros(),
                               out.error);
    }
    return out;
}

} // namespace wsrs::runner
