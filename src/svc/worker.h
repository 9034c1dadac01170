/**
 * @file
 * Distributed sweep worker: the claim/lease side of the protocol.
 *
 * A worker is launched with the *same sweep-defining flags* as the
 * coordinator, rebuilds the identical job list locally, and presents its
 * sweepKeyHash in the Hello handshake — so the lease frames only need to
 * carry job indices, and a worker built from a different matrix is
 * refused at handshake instead of producing mismatched results.
 *
 * Loop: Claim -> (Lease | NoWork). A lease's jobs run through
 * runner::executeJob (the exact code path of the in-process SweepRunner),
 * each outcome streaming back as a JobDone frame the moment it finishes —
 * so a SIGKILLed worker loses at most its one in-flight job. On NoWork
 * the worker reports its warm-up cache counters and retires.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/sweep_runner.h"
#include "src/svc/proto.h"

namespace wsrs::svc {

/** Worker process configuration. */
struct WorkerOptions
{
    /** Coordinator endpoint to connect to. */
    std::string endpoint;
    /** Restore functional warm-up snapshots (must match coordinator). */
    bool reuseWarmup = false;
    /** Shared on-disk warm-up cache directory (empty = in-memory only). */
    std::string warmupCacheDir;
};

/**
 * Connect, handshake and work until the coordinator says NoWork.
 * @return this worker's cache/job counters (also sent as WorkerStats).
 * @throws wsrs::IoError if the coordinator disappears mid-protocol;
 *         wsrs::SweepMismatchError if the handshake is refused.
 */
WorkerStatsInfo runWorker(const std::vector<runner::SweepJob> &jobs,
                          const WorkerOptions &options);

} // namespace wsrs::svc
