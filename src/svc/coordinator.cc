#include "coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <deque>

#include "src/common/log.h"
#include "src/runner/resume_journal.h"
#include "src/runner/sweep_merge.h"
#include "src/svc/frame.h"
#include "src/svc/proto.h"
#include "src/svc/shard.h"

namespace wsrs::svc {

namespace {

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One connected worker. */
struct Conn
{
    std::unique_ptr<Stream> stream;
    std::uint64_t workerId = 0; ///< 0 until Hello.
    bool helloDone = false;
    bool waitingClaim = false; ///< Sent Claim, no shard was available.
    bool retired = false;      ///< Got NoWork; only stats/EOF expected.
    /** coordinator_now - worker_now at Hello: added to worker span
     *  timestamps to land them on the coordinator's timeline. */
    std::int64_t clockOffsetUs = 0;
};

/** Lease-queue state of one shard. */
struct ShardState
{
    enum class Status { Pending, Leased, Done, Failed };

    Shard shard;
    Status status = Status::Pending;
    unsigned attempts = 0;       ///< Leases granted so far.
    std::int64_t notBeforeMs = 0;///< Backoff gate for the next lease.
    std::int64_t deadlineMs = 0; ///< Lease expiry while Leased.
    Conn *owner = nullptr;       ///< Lease holder while Leased.
    std::int64_t leaseStartUs = 0; ///< Span start of the current lease.
};

} // namespace

Coordinator::Coordinator(Options options, std::vector<runner::SweepJob> jobs)
    : options_(std::move(options)), jobs_(std::move(jobs))
{
    sweepKey_ = runner::sweepKeyHash(jobs_);
}

Coordinator::~Coordinator() = default;

void
Coordinator::bind()
{
    if (listener_)
        return;
    if (options_.endpoint.empty())
        fatal("coordinator needs a listen endpoint (e.g. unix:/tmp/x.sock)");
    listener_ = listen(options_.endpoint);
}

std::string
Coordinator::endpoint() const
{
    return listener_ ? listener_->endpoint() : options_.endpoint;
}

std::vector<runner::SweepOutcome>
Coordinator::run()
{
    bind();

    telemetry_ = {};
    svcReport_ = {};

    // The poll loop is single-threaded: it bumps the report directly.
    obs::SvcCounters &ctr = svcReport_.counters;

    obs::SpanLog *const spans = options_.spans;
    const std::uint64_t traceId =
        spans ? (sweepKey_ ^
                 static_cast<std::uint64_t>(obs::monotonicMicros())) | 1
              : 0;

    const std::size_t total = jobs_.size();
    runner::SweepMerge merge(jobs_, "", false, options_.onEvent, spans);

    std::vector<ShardState> shards;
    for (Shard &s : planShards(merge.pending(), options_.shardSize)) {
        ShardState st;
        st.shard = std::move(s);
        shards.push_back(std::move(st));
    }
    ctr.shards = shards.size();
    ctr.shardSize = options_.shardSize == 0 ? 1 : options_.shardSize;

    std::vector<std::unique_ptr<Conn>> conns;
    std::uint64_t nextWorkerId = 1;
    std::int64_t drainDeadline = -1; ///< Set once the sweep completes.

    // --- helpers over the mutable state above ---------------------------

    /** Remaining (un-arrived) jobs of a shard. */
    const auto missingJobs = [&](const ShardState &st) {
        std::vector<std::uint64_t> missing;
        for (const std::uint64_t j : st.shard.jobs)
            if (!merge.has(j))
                missing.push_back(j);
        return missing;
    };

    /** Close the current lease's per-job "attempt" spans. */
    const auto closeAttemptSpans = [&](const ShardState &st,
                                       const char *detail) {
        if (!spans || !st.leaseStartUs)
            return;
        const std::int64_t now = obs::monotonicMicros();
        const std::uint64_t worker = st.owner ? st.owner->workerId : 0;
        for (const std::uint64_t j : st.shard.jobs)
            spans->complete("attempt", j, st.attempts, worker,
                            st.leaseStartUs, now - st.leaseStartUs,
                            detail);
    };

    /** Return a shard to the queue after its lease holder failed. */
    const auto requeueShard = [&](ShardState &st, bool timedOut) {
        closeAttemptSpans(st, timedOut ? "timed-out" : "worker-died");
        st.owner = nullptr;
        st.leaseStartUs = 0;
        std::vector<std::uint64_t> missing = missingJobs(st);
        if (timedOut)
            ++ctr.leaseTimeouts;
        else
            ++ctr.leaseRetries;
        if (missing.empty()) {
            st.status = ShardState::Status::Done;
            return;
        }
        if (spans) {
            const std::int64_t now = obs::monotonicMicros();
            for (const std::uint64_t j : missing)
                spans->instant("re-leased", j, st.attempts, 0, now,
                               timedOut ? "timed-out" : "worker-died");
        }
        if (st.attempts > options_.maxLeaseRetries) {
            st.status = ShardState::Status::Failed;
            ++ctr.shardsFailed;
            for (const std::uint64_t j : missing) {
                runner::SweepOutcome out;
                out.ok = false;
                out.error = strprintf(
                    "shard %llu exhausted its %u lease retries "
                    "(workers kept dying or timing out)",
                    static_cast<unsigned long long>(st.shard.id),
                    options_.maxLeaseRetries);
                merge.accept(j, std::move(out));
            }
            return;
        }
        st.status = ShardState::Status::Pending;
        st.shard.jobs = std::move(missing);
        // Exponential backoff: base * 2^(attempts-1), capped at 30 s.
        std::uint64_t backoff = options_.leaseBackoffMs;
        for (unsigned i = 1; i < st.attempts && backoff < 30000; ++i)
            backoff *= 2;
        st.notBeforeMs = nowMs() + static_cast<std::int64_t>(
                                       std::min<std::uint64_t>(backoff,
                                                               30000));
    };

    /** Drop a connection, re-queueing anything it held. */
    const auto dropConn = [&](Conn *conn, bool timedOut) {
        if (conn->helloDone && !conn->retired)
            ++ctr.workersLost;
        for (ShardState &st : shards)
            if (st.status == ShardState::Status::Leased && st.owner == conn)
                requeueShard(st, timedOut);
        conn->stream->close();
        std::erase_if(conns, [&](const std::unique_ptr<Conn> &c) {
            return c.get() == conn;
        });
    };

    /** Lowest-id pending shard whose backoff gate has passed. */
    const auto nextLeasable = [&]() -> ShardState * {
        const std::int64_t now = nowMs();
        for (ShardState &st : shards)
            if (st.status == ShardState::Status::Pending &&
                st.notBeforeMs <= now)
                return &st;
        return nullptr;
    };

    /** Answer as many parked Claim frames as shards allow. */
    const auto satisfyClaims = [&] {
        std::vector<Conn *> broken; // Deferred: dropConn mutates conns.
        for (auto &cptr : conns) {
            Conn *conn = cptr.get();
            if (!conn->waitingClaim)
                continue;
            if (merge.complete()) {
                conn->waitingClaim = false;
                conn->retired = true;
                sendFrame(*conn->stream, FrameType::NoWork, "{}", traceId);
                continue;
            }
            ShardState *st = nextLeasable();
            if (!st)
                continue;
            conn->waitingClaim = false;
            st->status = ShardState::Status::Leased;
            st->owner = conn;
            ++st->attempts;
            st->deadlineMs =
                nowMs() + static_cast<std::int64_t>(
                              options_.perJobTimeoutMs *
                              std::max<std::size_t>(st->shard.jobs.size(),
                                                    1));
            st->leaseStartUs = spans ? obs::monotonicMicros() : 0;
            ++ctr.leasesGranted;
            if (!sendFrame(*conn->stream, FrameType::Lease,
                           leasePayload(st->shard, st->attempts), traceId))
                broken.push_back(conn);
        }
        for (Conn *conn : broken)
            dropConn(conn, false);
    };

    /** Handle one frame from @p conn; true keeps the connection. */
    const auto handleFrame = [&](Conn *conn, const Frame &frame) -> bool {
        switch (frame.type) {
          case FrameType::Hello: {
            const HelloInfo hello = parseHello(frame.payload);
            if (hello.sweepKey != sweepKey_ || hello.jobs != total) {
                const std::string why = strprintf(
                    "sweep identity mismatch: worker pid %lld presents "
                    "key %s over %llu jobs, coordinator runs key %s over "
                    "%llu jobs",
                    static_cast<long long>(hello.pid),
                    hexKey(hello.sweepKey).c_str(),
                    static_cast<unsigned long long>(hello.jobs),
                    hexKey(sweepKey_).c_str(),
                    static_cast<unsigned long long>(total));
                sendFrame(*conn->stream, FrameType::HelloAck,
                          helloAckPayload(false, why), traceId);
                return false;
            }
            conn->helloDone = true;
            conn->workerId = nextWorkerId++;
            // Skew normalization: assume the Hello arrived "now", so the
            // worker clock at hello.monoUs maps onto our clock here. The
            // residual (one-way transit) is sub-millisecond on local
            // sockets; the span writer clamps whatever survives.
            conn->clockOffsetUs =
                hello.monoUs ? obs::monotonicMicros() - hello.monoUs : 0;
            ++ctr.workersSeen;
            return sendFrame(*conn->stream, FrameType::HelloAck,
                             helloAckPayload(true, ""), traceId);
          }
          case FrameType::Claim:
            if (!conn->helloDone) {
                sendFrame(*conn->stream, FrameType::Error,
                          errorPayload("claim before hello"), traceId);
                return false;
            }
            conn->waitingClaim = true;
            return true;
          case FrameType::JobDone: {
            JobDone done = decodeJobDone(frame.payload);
            // A refused in-range result is a re-leased shard's original
            // owner limping home.
            if (!merge.accept(done.index, std::move(done.outcome)) &&
                done.index < total)
                ++ctr.duplicateResults;
            return true;
          }
          case FrameType::ShardDone: {
            const std::uint64_t id = parseShardDone(frame.payload);
            for (ShardState &st : shards) {
                if (st.shard.id != id || st.owner != conn)
                    continue;
                if (missingJobs(st).empty()) {
                    closeAttemptSpans(st, "done");
                    st.status = ShardState::Status::Done;
                    st.owner = nullptr;
                    st.leaseStartUs = 0;
                } else {
                    // Worker claims completion but jobs are missing:
                    // treat like a failed lease so they are retried.
                    requeueShard(st, false);
                }
            }
            return true;
          }
          case FrameType::SpanBatch: {
            if (!spans)
                return true; // Stale batch from an untraced run; drop.
            for (obs::SpanEvent e : parseSpanBatch(frame.payload)) {
                e.worker = conn->workerId;
                e.startUs += conn->clockOffsetUs;
                spans->add(std::move(e));
            }
            return true;
          }
          case FrameType::WorkerStats: {
            const WorkerStatsInfo stats = parseWorkerStats(frame.payload);
            telemetry_.warmupHits += stats.warmupHits;
            telemetry_.warmupMisses += stats.warmupMisses;
            return true;
          }
          default:
            sendFrame(*conn->stream, FrameType::Error,
                      errorPayload(strprintf("unexpected %s frame",
                                             frameTypeName(frame.type))),
                      traceId);
            return false;
        }
    };

    // --- event loop -----------------------------------------------------

    while (true) {
        if (merge.complete() && drainDeadline < 0)
            drainDeadline = nowMs() + static_cast<std::int64_t>(
                                          options_.drainGraceMs);
        satisfyClaims(); // Leases while running, NoWork once drained.
        if (merge.complete() && (conns.empty() || nowMs() >= drainDeadline))
            break;

        // Poll timeout: nearest lease deadline, backoff expiry or drain
        // deadline; 500 ms keeps the loop responsive regardless.
        const std::int64_t now = nowMs();
        std::int64_t wakeAt = now + 500;
        for (const ShardState &st : shards) {
            if (st.status == ShardState::Status::Leased)
                wakeAt = std::min(wakeAt, st.deadlineMs);
            else if (st.status == ShardState::Status::Pending &&
                     st.notBeforeMs > now)
                wakeAt = std::min(wakeAt, st.notBeforeMs);
        }
        if (drainDeadline >= 0)
            wakeAt = std::min(wakeAt, drainDeadline);

        std::vector<pollfd> fds;
        fds.push_back({listener_->pollFd(), POLLIN, 0});
        std::vector<Conn *> polled;
        for (auto &cptr : conns) {
            fds.push_back({cptr->stream->pollFd(), POLLIN, 0});
            polled.push_back(cptr.get());
        }
        const int timeout =
            static_cast<int>(std::max<std::int64_t>(wakeAt - now, 0));
        ::poll(fds.data(), fds.size(), timeout);

        if (fds[0].revents & POLLIN) {
            if (std::unique_ptr<Stream> peer = listener_->accept()) {
                auto conn = std::make_unique<Conn>();
                conn->stream = std::move(peer);
                conns.push_back(std::move(conn));
            }
        }

        for (std::size_t i = 0; i < polled.size(); ++i) {
            if (!(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn *conn = polled[i];
            // The conn may already have been dropped by a send failure
            // while serving an earlier fd this iteration.
            const bool stillHere =
                std::any_of(conns.begin(), conns.end(),
                            [&](const std::unique_ptr<Conn> &c) {
                                return c.get() == conn;
                            });
            if (!stillHere)
                continue;
            try {
                Frame frame;
                if (!recvFrame(*conn->stream, frame)) {
                    dropConn(conn, false); // Orderly EOF (or SIGKILL).
                    continue;
                }
                if (!handleFrame(conn, frame))
                    dropConn(conn, false);
            } catch (const FatalError &e) {
                std::fprintf(stderr,
                             "wsrs-sim: coordinator: dropping worker "
                             "%llu: %s\n",
                             static_cast<unsigned long long>(
                                 conn->workerId),
                             e.what());
                dropConn(conn, false);
            }
        }

        // Expired leases: the holder is hung — drop it, which re-queues
        // every shard it holds (this one counted as a timeout).
        const std::int64_t after = nowMs();
        for (ShardState &st : shards) {
            if (st.status != ShardState::Status::Leased ||
                st.deadlineMs > after)
                continue;
            Conn *owner = st.owner;
            requeueShard(st, true);
            if (owner)
                dropConn(owner, true);
        }
    }

    for (auto &cptr : conns)
        cptr->stream->close();
    conns.clear();
    listener_->close();

    return merge.take();
}

} // namespace wsrs::svc
