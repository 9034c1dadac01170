/**
 * @file
 * Single-job execution shared by the in-process sweep runner and the
 * distributed sweep workers (src/svc).
 *
 * A sweep job is self-contained: executeJob runs one {benchmark, machine}
 * simulation against the caches the caller supplies and captures any
 * failure in the returned outcome instead of throwing. Because the same
 * function body runs under SweepRunner's thread pool and inside
 * svc::runWorker, a job's results (including its wsrs-stats-v1 document)
 * are byte-identical no matter where it executed — the property the
 * coordinator's merged outcomes rely on.
 */
#pragma once

#include <cstdint>

#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/runner/sweep_runner.h"

namespace wsrs::ckpt {
class WarmupCache;
} // namespace wsrs::ckpt

namespace wsrs::runner {

/**
 * Registry handles for the runner-layer instruments (job counts, warm-up
 * cache behaviour, per-stage host latencies). Constructing one binds (or
 * re-binds) the instruments in @p registry; executeJob bumps them through
 * a borrowed pointer, so the disabled path is a null check — exactly the
 * TraceSink discipline, and gated the same way by the perf-smoke A/B.
 */
struct RunnerMetrics
{
    explicit RunnerMetrics(obs::MetricsRegistry &registry);

    obs::MetricCounter &jobsExecuted;
    obs::MetricCounter &jobFailures;
    obs::MetricCounter &warmupHits;
    obs::MetricCounter &warmupBuilds;
    obs::MetricHistogram &jobMs;      ///< Whole executeJob wall time.
    obs::MetricHistogram &warmupMs;   ///< Warm-up acquire (hit or build).
    obs::MetricHistogram &simulateMs; ///< Measured-slice simulation.

    // ---- memory backend (non-zero only under --mem-model dram) ----
    obs::MetricCounter &memRequests;
    obs::MetricCounter &memRowHits;
    obs::MetricCounter &memRowConflicts;
    obs::MetricCounter &memQueueFullWaits;
};

/** Caches and policy one executeJob call runs against. All pointers are
 *  borrowed and may be shared between concurrent calls. */
struct JobContext
{
    /** Warm-up snapshot cache (required when reuseWarmup). */
    ckpt::WarmupCache *warmups = nullptr;
    /** Restore one functional warm-up snapshot per benchmark instead of
     *  core-timed warm-up (see SweepRunner::Options::reuseWarmup). */
    bool reuseWarmup = false;

    // ---- telemetry (null = disabled; see docs/observability.md) ----
    /** Metric handles to bump per job. */
    RunnerMetrics *metrics = nullptr;
    /** Span log receiving warmup/simulate/job events. */
    obs::SpanLog *spans = nullptr;
};

/** Per-call span identity: which job/attempt this execution is, on whose
 *  timeline. Ignored unless the context carries a span log. */
struct JobTelemetry
{
    std::uint64_t job = 0;     ///< Sweep job index.
    std::uint32_t attempt = 0; ///< Lease attempt (0 = in-process runner).
    std::uint64_t worker = 0;  ///< Worker id (0 = local).
};

/**
 * Run one job to completion. Exceptions (FatalError and friends) are
 * captured into the outcome's error field; the call itself only throws on
 * broken preconditions (reuseWarmup without a warmup cache).
 */
SweepOutcome executeJob(const SweepJob &job, const JobContext &ctx,
                        const JobTelemetry &tele = {});

} // namespace wsrs::runner
