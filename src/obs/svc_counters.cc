#include "svc_counters.h"

namespace wsrs::obs {

SvcMetrics::SvcMetrics(MetricsRegistry &r)
    : shards(r.gauge("wsrs_svc_shards",
                     "Shards the current sweep was split into")),
      shardSize(r.gauge("wsrs_svc_shard_size",
                        "Configured jobs per shard")),
      leasesGranted(r.counter("wsrs_svc_leases_granted_total",
                              "Lease grants, re-leases included")),
      leaseRetries(r.counter("wsrs_svc_lease_retries_total",
                             "Re-leases after a worker died")),
      leaseTimeouts(r.counter("wsrs_svc_lease_timeouts_total",
                              "Re-leases after a lease deadline blew")),
      shardsFailed(r.counter("wsrs_svc_shards_failed_total",
                             "Shards that exhausted their retries")),
      duplicateResults(r.counter("wsrs_svc_duplicate_results_total",
                                 "Dropped double-reported job results")),
      workersSeen(r.counter("wsrs_svc_workers_seen_total",
                            "Workers that completed the handshake")),
      workersLost(r.counter("wsrs_svc_workers_lost_total",
                            "Workers that died mid-sweep"))
{
}

SvcCounters
SvcMetrics::snapshot() const
{
    SvcCounters c;
    c.shards = static_cast<std::uint64_t>(shards.value());
    c.shardSize = static_cast<std::uint64_t>(shardSize.value());
    c.leasesGranted = leasesGranted.value();
    c.leaseRetries = leaseRetries.value();
    c.leaseTimeouts = leaseTimeouts.value();
    c.shardsFailed = shardsFailed.value();
    c.duplicateResults = duplicateResults.value();
    c.workersSeen = workersSeen.value();
    c.workersLost = workersLost.value();
    return c;
}

} // namespace wsrs::obs
