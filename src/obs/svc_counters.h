/**
 * @file
 * Observability counters of the distributed sweep service (src/svc).
 *
 * The coordinator exposes what happened around a sweep — sharding, lease
 * churn, worker liveness — through one machine-readable object. It
 * appears as the `svc` member of a wsrs-sweep-report-v1 document produced
 * by a coordinator merge. scripts/check_stats_schema.py validates the
 * shape.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/obs/metrics_registry.h"

namespace wsrs::obs {

/** Liveness snapshot of one worker connection, as the coordinator saw
 *  it when the report was merged. */
struct WorkerLiveness
{
    std::uint64_t id = 0;       ///< Coordinator-assigned worker id.
    std::int64_t pid = 0;       ///< Worker's reported pid (0 = unknown).
    std::uint64_t jobsDone = 0; ///< Job results accepted from it.
    bool alive = false;         ///< Connection still open at snapshot.
};

/** Counters of one distributed sweep. */
struct SvcCounters
{
    std::uint64_t shards = 0;        ///< Shards the sweep was split into.
    std::uint64_t shardSize = 0;     ///< Configured jobs per shard.
    std::uint64_t leasesGranted = 0; ///< Lease grants, re-leases included.
    std::uint64_t leaseRetries = 0;  ///< Re-leases after a worker died.
    std::uint64_t leaseTimeouts = 0; ///< Re-leases after a deadline blew.
    std::uint64_t shardsFailed = 0;  ///< Shards that exhausted retries.
    std::uint64_t duplicateResults = 0; ///< Dropped double-reported jobs.
    std::uint64_t workersSeen = 0;   ///< Workers that completed handshake.
    std::uint64_t workersLost = 0;   ///< Workers that died mid-sweep.
};

/**
 * Write the `svc` JSON object: the counters plus a `workers` liveness
 * array. Emits a complete object (`{...}`), no trailing newline.
 */
void writeSvcJson(JsonWriter &w, const SvcCounters &counters,
                  const std::vector<WorkerLiveness> &workers);

/**
 * The service counters as registry instruments. The coordinator bumps
 * these handles instead of ad-hoc struct fields, which makes every count
 * visible through the registry's `--metrics-out` export for free;
 * snapshot() rebuilds the SvcCounters struct that writeSvcJson
 * serializes. Construct one per registry; re-construction re-binds to
 * the same instruments.
 */
struct SvcMetrics
{
    explicit SvcMetrics(MetricsRegistry &registry);

    MetricGauge &shards;
    MetricGauge &shardSize;
    MetricCounter &leasesGranted;
    MetricCounter &leaseRetries;
    MetricCounter &leaseTimeouts;
    MetricCounter &shardsFailed;
    MetricCounter &duplicateResults;
    MetricCounter &workersSeen;
    MetricCounter &workersLost;

    /** Rebuild the report struct from the live instruments. */
    SvcCounters snapshot() const;
};

} // namespace wsrs::obs
