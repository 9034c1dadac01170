/**
 * @file
 * Observability counters of the distributed sweep coordinator (src/svc):
 * what happened around a sweep — sharding, lease churn, worker
 * liveness — read back through Coordinator::svcReport().
 */
#pragma once

#include <cstdint>

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

} // namespace wsrs::obs
