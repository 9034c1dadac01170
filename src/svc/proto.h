/**
 * @file
 * Payload codecs for the coordinator/worker protocol.
 *
 * Control frames carry small JSON bodies (parsed strictly by
 * src/common/json.h); JobDone carries binary journal-codec bytes so a
 * streamed outcome and a journaled one are the same payload. Sweep keys
 * travel as 16-digit lower-case hex strings — JSON numbers are doubles on
 * many readers and would silently round a 64-bit hash.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/span_log.h"
#include "src/runner/sweep_runner.h"
#include "src/svc/shard.h"

namespace wsrs::svc {

/** 64-bit key as a fixed-width lower-case hex string. */
std::string hexKey(std::uint64_t key);
/** Inverse of hexKey; throws FatalError on malformed input. */
std::uint64_t parseHexKey(const std::string &text,
                          const std::string &what);

/** Decoded Hello frame body. */
struct HelloInfo
{
    std::string role;           ///< "worker".
    std::int64_t pid = 0;
    std::uint64_t sweepKey = 0; ///< sweepKeyHash of the worker's job list.
    std::uint64_t jobs = 0;     ///< Worker's job-list length.
    /** Worker's monotonic clock (obs::monotonicMicros) at handshake;
     *  the coordinator derives its skew-normalization offset from this
     *  (0 = worker predates span telemetry). */
    std::int64_t monoUs = 0;
};

std::string helloPayload(std::int64_t pid, std::uint64_t sweep_key,
                         std::uint64_t num_jobs,
                         std::int64_t mono_us = 0);
HelloInfo parseHello(const std::string &payload);

std::string helloAckPayload(bool ok, const std::string &error);
/** @return empty string when ok, else the refusal message. */
std::string parseHelloAck(const std::string &payload);

/** Decoded Lease frame body: the shard plus its lease attempt number
 *  (1-based; >1 means the shard is being retried after a loss). */
struct LeaseInfo
{
    Shard shard;
    std::uint32_t attempt = 1;
};

std::string leasePayload(const Shard &shard, std::uint32_t attempt = 1);
LeaseInfo parseLease(const std::string &payload);

std::string shardDonePayload(std::uint64_t shard_id);
std::uint64_t parseShardDone(const std::string &payload);

/** Binary JobDone body: ckpt::Writer{u64 index, str outcomeBytes} where
 *  outcomeBytes is the journal's encodeOutcome payload. */
std::string encodeJobDone(std::uint64_t index,
                          const runner::SweepOutcome &out);
struct JobDone
{
    std::uint64_t index = 0;
    runner::SweepOutcome outcome;
};
JobDone decodeJobDone(const std::string &payload);

/** Warm-up cache counters a retiring worker reports. */
struct WorkerStatsInfo
{
    std::uint64_t jobsRun = 0;
    std::uint64_t warmupHits = 0;   ///< Warm-up cache hits (workers
                                    ///< reuse no warm-ups: always 0).
    std::uint64_t warmupMisses = 0; ///< Warm-up builds (always 0).
};

std::string workerStatsPayload(const WorkerStatsInfo &stats);
WorkerStatsInfo parseWorkerStats(const std::string &payload);

/** Binary SpanBatch body: worker-recorded span events, timestamps on the
 *  worker's own monotonic clock (the coordinator normalizes them). */
std::string spanBatchPayload(const std::vector<obs::SpanEvent> &events);
std::vector<obs::SpanEvent> parseSpanBatch(const std::string &payload);

std::string errorPayload(const std::string &message);
std::string parseErrorPayload(const std::string &payload);

} // namespace wsrs::svc
