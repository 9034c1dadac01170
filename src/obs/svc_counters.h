/**
 * @file
 * Observability counters of the distributed sweep coordinator (src/svc):
 * what happened around a sweep — sharding, lease churn, worker
 * liveness — read back through Coordinator::svcReport().
 */
#pragma once

#include <cstdint>

#include "src/obs/metrics_registry.h"

namespace wsrs::obs {

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
 * The service counters as registry instruments, bumped by the
 * coordinator; snapshot() rebuilds the SvcCounters struct. Construct one
 * per registry; re-construction re-binds to the same instruments.
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
