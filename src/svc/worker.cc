#include "worker.h"

#include <unistd.h>

#include <memory>

#include "src/common/log.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/runner/job_exec.h"
#include "src/runner/resume_journal.h"
#include "src/svc/frame.h"
#include "src/svc/transport.h"

namespace wsrs::svc {

WorkerStatsInfo
runWorker(const std::vector<runner::SweepJob> &jobs,
          const WorkerOptions &options)
{
    const std::uint64_t sweepKey = runner::sweepKeyHash(jobs);

    std::unique_ptr<Stream> stream = connect(options.endpoint);

    // The Hello carries this worker's monotonic clock so the coordinator
    // can skew-normalize span timestamps shipped later in SpanBatch
    // frames; the HelloAck's header carries the sweep's trace id back
    // (0 = the coordinator is not collecting spans).
    if (!sendFrame(*stream, FrameType::Hello,
                   helloPayload(::getpid(), sweepKey, jobs.size(),
                                obs::monotonicMicros())))
        fatalIo("worker: coordinator at %s hung up during hello",
                options.endpoint.c_str());
    Frame frame;
    if (!recvFrame(*stream, frame) || frame.type != FrameType::HelloAck)
        fatalIo("worker: expected hello_ack from %s, got %s",
                options.endpoint.c_str(),
                frameTypeName(frame.type));
    if (const std::string refusal = parseHelloAck(frame.payload);
        !refusal.empty())
        fatalMismatch("worker: %s", refusal.c_str());
    const std::uint64_t traceId = frame.traceId;

    // Runner metrics always land in the process registry (exported only
    // on demand); span events are only recorded when the coordinator
    // stamped a trace id on the handshake.
    runner::RunnerMetrics metrics(obs::MetricsRegistry::process());
    obs::SpanLog spanLog;

    runner::JobContext ctx;
    ctx.metrics = &metrics;
    ctx.spans = traceId ? &spanLog : nullptr;

    WorkerStatsInfo stats;
    bool retired = false;
    while (!retired) {
        if (!sendFrame(*stream, FrameType::Claim, "{}", traceId))
            fatalIo("worker: coordinator hung up on claim");
        if (!recvFrame(*stream, frame))
            fatalIo("worker: coordinator hung up awaiting a lease");
        switch (frame.type) {
          case FrameType::Lease: {
            const LeaseInfo lease = parseLease(frame.payload);
            const Shard &shard = lease.shard;
            for (const std::uint64_t index : shard.jobs) {
                if (index >= jobs.size())
                    fatalIo("worker: lease names job %llu of a %zu-job "
                            "sweep",
                            static_cast<unsigned long long>(index),
                            jobs.size());
                runner::SweepOutcome out = executeJob(
                    jobs[index], ctx,
                    runner::JobTelemetry{index, lease.attempt, 0});
                ++stats.jobsRun;
                if (!sendFrame(*stream, FrameType::JobDone,
                               encodeJobDone(index, out), traceId))
                    fatalIo("worker: coordinator hung up mid-shard "
                            "(job %llu done but unreported)",
                            static_cast<unsigned long long>(index));
                if (ctx.spans)
                    ctx.spans->instant("result-framed", index,
                                       lease.attempt, 0,
                                       obs::monotonicMicros());
            }
            if (!sendFrame(*stream, FrameType::ShardDone,
                           shardDonePayload(shard.id), traceId))
                fatalIo("worker: coordinator hung up on shard_done");
            // Ship this shard's span events right behind its results so
            // a worker killed later loses at most one shard of spans.
            // Best effort: a hang-up here only loses telemetry.
            if (ctx.spans && ctx.spans->size() > 0)
                sendFrame(*stream, FrameType::SpanBatch,
                          spanBatchPayload(ctx.spans->drain()), traceId);
            break;
          }
          case FrameType::NoWork:
            retired = true;
            break;
          case FrameType::Error:
            fatalIo("worker: coordinator error: %s",
                    parseErrorPayload(frame.payload).c_str());
          default:
            fatalIo("worker: unexpected %s frame while awaiting a lease",
                    frameTypeName(frame.type));
        }
    }

    // Best-effort: the sweep result is already delivered; a hung-up
    // coordinator here only loses telemetry.
    if (ctx.spans && ctx.spans->size() > 0)
        sendFrame(*stream, FrameType::SpanBatch,
                  spanBatchPayload(ctx.spans->drain()), traceId);
    sendFrame(*stream, FrameType::WorkerStats, workerStatsPayload(stats),
              traceId);
    stream->close();
    return stats;
}

} // namespace wsrs::svc
