/**
 * @file
 * Distributed sweep coordinator: a sweep's jobs as sharded leases.
 *
 * The coordinator owns a sweep's job list. Job indices are partitioned
 * into contiguous shards (src/svc/shard.h); worker processes connect over
 * the framed transport, handshake (the sweep-key hash must match, so a
 * worker built from a different job matrix is refused instead of
 * silently mixing results), and claim shard leases. Every completed job
 * streams back immediately as its journal-codec bytes, so a SIGKILLed
 * worker loses at most its one in-flight job.
 *
 * The command-line tools no longer start a coordinator; it is kept as a
 * library for the performance ledger's fig4-svc workload.
 *
 * Fault model:
 *  - worker death (EOF/send failure) re-queues its leased shards' missing
 *    jobs with attempts+1 and exponential backoff;
 *  - a lease that exceeds its per-job deadline is torn down the same way
 *    (counted separately) — the hung worker's connection is closed;
 *  - a shard that exhausts its retry budget fails its remaining jobs with
 *    an explicit error outcome instead of stalling the sweep;
 *  - duplicate results (a re-leased shard's original owner limping home)
 *    are dropped and counted.
 *
 * The merge is submission-ordered by construction — outcomes land at
 * their job index, exactly like the in-process SweepRunner — so the
 * outcomes are byte-identical to a single-process run.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/span_log.h"
#include "src/obs/svc_counters.h"
#include "src/runner/sweep_runner.h"
#include "src/svc/transport.h"

namespace wsrs::svc {

/** Sharding and lease counters of one Coordinator run. */
struct SvcReport
{
    obs::SvcCounters counters;
};

/** Blocking, single-threaded coordinator (poll(2) event loop). */
class Coordinator
{
  public:
    struct Options
    {
        /** Listen endpoint, e.g. "unix:/tmp/wsrs-sweep.sock". */
        std::string endpoint;
        /** Max jobs per shard lease. */
        std::uint64_t shardSize = 4;
        /** Lease deadline per leased job; a blown deadline re-queues the
         *  shard and drops the worker. */
        std::uint64_t perJobTimeoutMs = 120000;
        /** Re-lease budget per shard before its jobs are failed. */
        unsigned maxLeaseRetries = 3;
        /** Base re-lease backoff (doubles per attempt, capped at 30 s). */
        std::uint64_t leaseBackoffMs = 100;
        /** Grace period to collect worker stats after the last job. */
        std::uint64_t drainGraceMs = 3000;
        /** Per-completion progress hook (serialized; may be empty). */
        std::function<void(const runner::SweepEvent &)> onEvent;

        // ---- telemetry (null = disabled) ----
        /** Span log for the per-job distributed timeline. When set, the
         *  coordinator mints a trace id, stamps it on every frame, and
         *  merges worker span batches onto its own clock (skew offset
         *  taken from each worker's Hello). */
        obs::SpanLog *spans = nullptr;
    };

    Coordinator(Options options, std::vector<runner::SweepJob> jobs);
    ~Coordinator();

    /**
     * Bind and start listening. Returns once workers can connect —
     * spawn worker processes after this to avoid a connect race.
     */
    void bind();

    /** The bound endpoint (valid after bind()). */
    std::string endpoint() const;

    /**
     * Distribute the sweep; blocks until every job has an outcome and
     * connected workers have retired (or the drain grace expires).
     * Outcomes are in submission order, like SweepRunner::run.
     */
    std::vector<runner::SweepOutcome> run();

    /** Telemetry of the most recent run() (warm-up counters aggregated
     *  from worker stats). */
    const runner::SweepRunner::Telemetry &telemetry() const
    {
        return telemetry_;
    }

    /** Sharding/lease/liveness counters of the most recent run(). */
    const SvcReport &svcReport() const { return svcReport_; }

    /** Sweep identity hash the workers must present. */
    std::uint64_t sweepKey() const { return sweepKey_; }

  private:
    Options options_;
    std::vector<runner::SweepJob> jobs_;
    std::uint64_t sweepKey_ = 0;
    std::unique_ptr<Listener> listener_;
    runner::SweepRunner::Telemetry telemetry_;
    SvcReport svcReport_;
};

} // namespace wsrs::svc
