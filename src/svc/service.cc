#include "service.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "src/common/log.h"
#include "src/common/stats.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/obs/svc_counters.h"
#include "src/runner/job_exec.h"
#include "src/runner/sweep_report.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/svc/frame.h"
#include "src/svc/frame_log.h"
#include "src/svc/json_min.h"
#include "src/svc/proto.h"
#include "src/svc/transport.h"
#include "src/workload/profiles.h"

namespace wsrs::svc {

namespace {

/** Finished requests kept visible in status replies. */
constexpr std::size_t kMaxFinishedViews = 32;

/** One admitted sweep request. */
struct Request
{
    std::uint64_t id = 0;
    std::uint64_t conn = 0; ///< Frame-log connection id.
    std::unique_ptr<Stream> stream;
    std::vector<runner::SweepJob> jobs;
    bool shareTraces = true;
    bool reuseWarmup = false;
};

/** Status-reply view of a request's lifecycle. */
struct RequestView
{
    std::uint64_t id = 0;
    std::string state; ///< queued | running | done | failed.
    std::size_t jobsTotal = 0;
    std::size_t jobsDone = 0;
};

/** Parse and validate one SweepRequest body into jobs + policy. */
Request
parseSweepRequest(const std::string &payload)
{
    const JsonValue doc = parseJson(payload, "sweep_request frame");
    Request req;

    std::vector<workload::BenchmarkProfile> profiles;
    if (doc.has("benchmarks")) {
        for (const JsonValue &v : doc.get("benchmarks").asArray())
            profiles.push_back(workload::findProfile(v.asString()));
    } else {
        profiles = workload::allProfiles();
    }
    if (profiles.empty())
        fatal("sweep_request: empty benchmark list");

    std::vector<std::string> machines;
    if (doc.has("machines")) {
        for (const JsonValue &v : doc.get("machines").asArray())
            machines.push_back(v.asString());
    } else {
        machines = sim::figure4Presets();
    }
    if (machines.empty())
        fatal("sweep_request: empty machine list");
    for (const std::string &m : machines)
        (void)sim::findPreset(m); // Validate at admission, not mid-sweep.

    sim::SimConfig base;
    base.measureUops = static_cast<std::uint64_t>(
        doc.getInt("uops", 1000000));
    base.warmupUops = static_cast<std::uint64_t>(
        doc.getInt("warmup", 400000));
    base.seed = static_cast<std::uint64_t>(doc.getInt("seed", 0));

    req.jobs = runner::SweepRunner::crossProduct(profiles, machines, base);
    req.shareTraces = doc.getBool("share_traces", true);
    req.reuseWarmup = doc.getBool("reuse_warmup", false);
    return req;
}

} // namespace

struct SweepService::Impl
{
    ServiceOptions options;

    std::unique_ptr<Listener> listener;
    int wakePipe[2] = {-1, -1}; ///< Self-pipe to interrupt the I/O poll.

    std::thread ioThread;
    std::vector<std::thread> executors;

    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<std::unique_ptr<Request>> queue;
    std::deque<RequestView> views;
    std::uint64_t nextRequestId = 1;
    std::uint64_t nextConnId = 1;
    unsigned runningNow = 0;

    // The daemon's instruments live in its own registry (not the global
    // process one) so each daemon instance — tests run several per
    // process — starts from zero. The registry backs both the Prometheus
    // `/metrics` endpoint and the status reply's svc object.
    obs::MetricsRegistry registry;
    obs::SvcMetrics metrics{registry};
    obs::MetricGauge &queuedGauge = registry.gauge(
        "wsrs_svc_queued", "Requests waiting behind the executors.");
    obs::MetricGauge &runningGauge =
        registry.gauge("wsrs_svc_running", "Requests currently executing.");
    obs::MetricHistogram &requestMs = registry.histogram(
        "wsrs_svc_request_duration_ms",
        "Sweep request wall time, dequeue to reply sent (ms).",
        obs::MetricsRegistry::latencyBucketsMs());

    std::unique_ptr<FrameLogWriter> frameLog;

    std::atomic<bool> stopping{false};
    std::atomic<bool> stopRequested{false};
    bool started = false;
    bool stopped = false;

    void logFrame(std::uint64_t conn, const char *dir, FrameType type,
                  std::string_view body, std::uint64_t payload_bytes);
    void reply(std::uint64_t conn, Stream &stream, FrameType type,
               std::string_view body);
    RequestView *findView(std::uint64_t id);
    void ioLoop();
    void handleConnection(std::uint64_t conn,
                          std::unique_ptr<Stream> stream);
    void handleHttpGet(std::uint64_t conn, std::unique_ptr<Stream> stream);
    void executorLoop();
    void runRequest(Request &req);
    void flushFrameLogIfDrained();
    std::string buildStatusJson() const;
};

void
SweepService::Impl::logFrame(std::uint64_t conn, const char *dir,
                             FrameType type, std::string_view body,
                             std::uint64_t payload_bytes)
{
    if (frameLog)
        frameLog->append(conn, dir, frameTypeName(type), body,
                         payload_bytes);
}

/** Send one reply frame and log it. Status replies and sweep results are
 *  whole documents: the log records only their size. */
void
SweepService::Impl::reply(std::uint64_t conn, Stream &stream,
                          FrameType type, std::string_view body)
{
    sendFrame(stream, type, body);
    const bool sizeOnly =
        type == FrameType::StatusReply || type == FrameType::SweepResult;
    logFrame(conn, "tx", type, sizeOnly ? std::string_view() : body,
             body.size());
}

RequestView *
SweepService::Impl::findView(std::uint64_t id)
{
    for (RequestView &v : views)
        if (v.id == id)
            return &v;
    return nullptr;
}

void
SweepService::Impl::ioLoop()
{
    while (!stopping.load()) {
        pollfd fds[2] = {{listener->pollFd(), POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        ::poll(fds, 2, 500);
        if (stopping.load())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        std::unique_ptr<Stream> peer = listener->accept();
        if (!peer)
            continue;
        try {
            handleConnection(nextConnId++, std::move(peer));
        } catch (const FatalError &e) {
            // A malformed client must not take the daemon down.
            std::fprintf(stderr, "wsrs-sim: serve: dropped client: %s\n",
                         e.what());
        }
    }
    listener->close();
}

void
SweepService::Impl::handleConnection(std::uint64_t conn,
                                     std::unique_ptr<Stream> stream)
{
    // One request frame per connection; a silent client is cut loose
    // instead of wedging the accept loop.
    pollfd pfd = {stream->pollFd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0 || !(pfd.revents & POLLIN)) {
        stream->close();
        return;
    }

    // Sniff the first bytes without consuming them: a framed client
    // leads with the "WSVF" magic, a curious human (curl, nc, the
    // dashboard poller) leads with "GET ". Both protocols share one
    // endpoint so dashboards need no extra port.
    char peeked[4] = {0, 0, 0, 0};
    const long pn =
        ::recv(stream->pollFd(), peeked, sizeof peeked, MSG_PEEK);
    if (pn == 4 && std::memcmp(peeked, "GET ", 4) == 0) {
        handleHttpGet(conn, std::move(stream));
        return;
    }

    Frame frame;
    if (!recvFrame(*stream, frame))
        return;

    switch (frame.type) {
      case FrameType::StatusRequest: {
        logFrame(conn, "rx", frame.type, frame.payload,
                 frame.payload.size());
        reply(conn, *stream, FrameType::StatusReply, buildStatusJson());
        stream->close();
        return;
      }
      case FrameType::SweepRequest: {
        logFrame(conn, "rx", frame.type, frame.payload,
                 frame.payload.size());
        std::unique_ptr<Request> req;
        try {
            req = std::make_unique<Request>(
                parseSweepRequest(frame.payload));
        } catch (const FatalError &e) {
            reply(conn, *stream, FrameType::Error, errorPayload(e.what()));
            metrics.requestsFailed.add();
            return;
        }
        std::unique_lock<std::mutex> lock(mu);
        if (queue.size() >= options.queueDepth) {
            metrics.backpressureRejects.add();
            // Hint scales with the backlog: a deeper queue means a
            // longer wait before a retry can be admitted.
            const std::uint64_t hint =
                1000 * static_cast<std::uint64_t>(queue.size() +
                                                  runningNow + 1);
            lock.unlock();
            std::ostringstream os;
            os << "{\"retry_after_ms\": " << hint
               << ", \"reason\": \"admission queue full (depth "
               << options.queueDepth << ")\"}";
            reply(conn, *stream, FrameType::SweepRejected, os.str());
            return;
        }
        req->id = nextRequestId++;
        req->conn = conn;
        req->stream = std::move(stream);
        metrics.requestsAdmitted.add();
        RequestView view;
        view.id = req->id;
        view.state = "queued";
        view.jobsTotal = req->jobs.size();
        views.push_back(view);
        while (views.size() > kMaxFinishedViews + queue.size() + 1)
            views.pop_front();
        std::ostringstream os;
        os << "{\"request\": " << req->id
           << ", \"queued_ahead\": " << queue.size() << "}";
        const std::string body = os.str();
        lock.unlock();
        // Ack before enqueueing: once queued, an executor owns the
        // stream and this thread must not touch it again.
        reply(conn, *req->stream, FrameType::SweepAccepted, body);
        lock.lock();
        queue.push_back(std::move(req));
        queuedGauge.set(static_cast<std::int64_t>(queue.size()));
        lock.unlock();
        cv.notify_one();
        return;
      }
      default: {
        reply(conn, *stream, FrameType::Error,
              errorPayload(strprintf("unexpected %s frame; expected "
                                     "sweep_request or status_request",
                                     frameTypeName(frame.type))));
        return;
      }
    }
}

void
SweepService::Impl::handleHttpGet(std::uint64_t conn,
                                  std::unique_ptr<Stream> stream)
{
    // One read covers any sane request line; headers are ignored.
    char buf[1024];
    const long n = stream->read(buf, sizeof buf - 1);
    if (n <= 0) {
        stream->close();
        return;
    }
    std::string line(buf, static_cast<std::size_t>(n));
    if (const auto eol = line.find_first_of("\r\n");
        eol != std::string::npos)
        line.resize(eol);
    // "GET <path> HTTP/1.x" (the version token is optional).
    std::string path;
    if (const auto sp = line.find(' '); sp != std::string::npos) {
        path = line.substr(sp + 1);
        if (const auto end = path.find(' '); end != std::string::npos)
            path.resize(end);
    }
    if (frameLog)
        frameLog->append(conn, "rx", "http_get",
                         "{\"path\": \"" + jsonEscape(path) + "\"}",
                         static_cast<std::uint64_t>(n));

    int code = 200;
    const char *codeName = "OK";
    const char *ctype = "text/plain; charset=utf-8";
    std::string body;
    if (path == "/status") {
        ctype = "application/json";
        body = buildStatusJson() + "\n";
    } else if (path == "/metrics") {
        ctype = "text/plain; version=0.0.4; charset=utf-8";
        std::ostringstream os;
        registry.writePrometheus(os);
        body = os.str();
    } else if (path == "/metrics.json") {
        ctype = "application/json";
        std::ostringstream os;
        registry.writeJson(os);
        body = os.str();
    } else {
        code = 404;
        codeName = "Not Found";
        body = "unknown path; try /status, /metrics or /metrics.json\n";
    }

    std::ostringstream os;
    os << "HTTP/1.0 " << code << " " << codeName << "\r\n"
       << "Content-Type: " << ctype << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    const std::string reply = os.str();
    stream->writeAll(reply.data(), reply.size());
    if (frameLog)
        frameLog->append(conn, "tx", "http_reply", "", body.size());
    stream->close();
}

void
SweepService::Impl::executorLoop()
{
    while (true) {
        std::unique_ptr<Request> req;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] {
                return !queue.empty() || stopping.load();
            });
            if (queue.empty())
                return; // stopping and drained.
            req = std::move(queue.front());
            queue.pop_front();
            ++runningNow;
            queuedGauge.set(static_cast<std::int64_t>(queue.size()));
            runningGauge.set(runningNow);
            if (RequestView *v = findView(req->id))
                v->state = "running";
        }
        runRequest(*req);
        {
            std::lock_guard<std::mutex> lock(mu);
            --runningNow;
            runningGauge.set(runningNow);
        }
        flushFrameLogIfDrained();
    }
}

void
SweepService::Impl::flushFrameLogIfDrained()
{
    if (!frameLog)
        return;
    bool drained;
    {
        std::lock_guard<std::mutex> lock(mu);
        drained = queue.empty() && runningNow == 0;
    }
    // Flush-on-drain: buffered log lines reach the filesystem whenever
    // the daemon goes idle, so the on-disk log trails live traffic by at
    // most one busy burst (readers tolerate the torn tail regardless).
    if (drained)
        frameLog->flush();
}

void
SweepService::Impl::runRequest(Request &req)
{
    const std::int64_t startUs = obs::monotonicMicros();
    runner::SweepRunner::Options opt;
    opt.threads = options.sweepThreads;
    opt.shareTraces = req.shareTraces;
    opt.reuseWarmup = req.reuseWarmup;
    opt.metrics = &registry; ///< Runner instruments join `/metrics`.
    opt.onEvent = [&](const runner::SweepEvent &ev) {
        std::lock_guard<std::mutex> lock(mu);
        if (RequestView *v = findView(req.id))
            v->jobsDone = ev.completed;
    };
    bool ok = false;
    std::string body;
    FrameType replyType = FrameType::Error;
    try {
        runner::SweepRunner sweep(opt);
        const std::vector<runner::SweepOutcome> outcomes =
            sweep.run(req.jobs);
        std::ostringstream os;
        runner::writeSweepReport(os, req.jobs, outcomes,
                                 sweep.telemetry());
        body = os.str();
        replyType = FrameType::SweepResult;
        ok = true;
    } catch (const std::exception &e) {
        body = errorPayload(e.what());
    }
    // Commit the bookkeeping before streaming the result: a client that
    // has its report in hand must find itself completed in /status.
    {
        std::lock_guard<std::mutex> lock(mu);
        if (ok)
            metrics.requestsCompleted.add();
        else
            metrics.requestsFailed.add();
        if (RequestView *v = findView(req.id))
            v->state = ok ? "done" : "failed";
    }
    reply(req.conn, *req.stream, replyType, body);
    req.stream->close();
    requestMs.observe(
        static_cast<std::uint64_t>((obs::monotonicMicros() - startUs) /
                                   1000));
}

std::string
SweepService::Impl::buildStatusJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ostringstream os;
    os << "{\"schema\": \"wsrs-svc-status-v1\", \"endpoint\": \""
       << jsonEscape(listener ? listener->endpoint() : options.endpoint)
       << "\", \"queue_depth\": " << options.queueDepth
       << ", \"executors\": " << options.executors
       << ", \"queued\": " << queue.size()
       << ", \"running\": " << runningNow << ", \"svc\": ";
    obs::writeSvcJson(os, metrics.snapshot(), {});
    os << ", \"requests\": [";
    bool first = true;
    for (const RequestView &v : views) {
        os << (first ? "" : ", ") << "{\"id\": " << v.id
           << ", \"state\": \"" << v.state
           << "\", \"jobs_total\": " << v.jobsTotal
           << ", \"jobs_done\": " << v.jobsDone << "}";
        first = false;
    }
    os << "]}";
    return os.str();
}

SweepService::SweepService(ServiceOptions options)
    : impl_(std::make_unique<Impl>())
{
    impl_->options = std::move(options);
}

SweepService::~SweepService()
{
    stop();
}

void
SweepService::start()
{
    Impl &im = *impl_;
    if (im.started)
        return;
    if (im.options.endpoint.empty())
        fatal("--serve needs a listen endpoint (e.g. unix:/tmp/x.sock)");
    if (im.options.executors == 0)
        im.options.executors = 1;
    if (::pipe(im.wakePipe) != 0)
        fatalIo("serve: cannot create the shutdown pipe");
    if (!im.options.frameLogPath.empty()) {
        im.frameLog =
            std::make_unique<FrameLogWriter>(im.options.frameLogPath);
        if (!im.frameLog->ok())
            std::fprintf(stderr,
                         "wsrs-sim: serve: cannot write frame log '%s'\n",
                         im.options.frameLogPath.c_str());
    }
    im.listener = listen(im.options.endpoint);
    im.started = true;
    im.ioThread = std::thread([&im] { im.ioLoop(); });
    for (unsigned i = 0; i < im.options.executors; ++i)
        im.executors.emplace_back([&im] { im.executorLoop(); });
}

void
SweepService::stop()
{
    Impl &im = *impl_;
    if (!im.started || im.stopped)
        return;
    im.stopping.store(true);
    // Wake the I/O poll immediately (best-effort; it also times out).
    [[maybe_unused]] const long n = ::write(im.wakePipe[1], "x", 1);
    if (im.ioThread.joinable())
        im.ioThread.join();
    im.cv.notify_all();
    for (std::thread &t : im.executors)
        if (t.joinable())
            t.join();
    im.executors.clear();
    if (im.frameLog)
        im.frameLog->finish();
    ::close(im.wakePipe[0]);
    ::close(im.wakePipe[1]);
    im.stopped = true;
}

void
SweepService::wait()
{
    while (!impl_->stopRequested.load() && !impl_->stopped)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop();
}

void
SweepService::requestStop()
{
    impl_->stopRequested.store(true);
}

std::string
SweepService::endpoint() const
{
    return impl_->listener ? impl_->listener->endpoint() :
                             impl_->options.endpoint;
}

std::string
SweepService::statusJson() const
{
    return impl_->buildStatusJson();
}

SubmitResult
submitSweep(const std::string &endpoint, const std::string &request_json)
{
    std::unique_ptr<Stream> stream = connect(endpoint);
    if (!sendFrame(*stream, FrameType::SweepRequest, request_json))
        fatalIo("sweep daemon at %s hung up on the request",
                endpoint.c_str());
    SubmitResult result;
    Frame frame;
    if (!recvFrame(*stream, frame))
        fatalIo("sweep daemon at %s closed without replying",
                endpoint.c_str());
    switch (frame.type) {
      case FrameType::SweepRejected: {
        const JsonValue doc =
            parseJson(frame.payload, "sweep_rejected frame");
        result.accepted = false;
        result.retryAfterMs = static_cast<std::uint64_t>(
            doc.getInt("retry_after_ms", 1000));
        result.reason = doc.getString("reason", "admission queue full");
        return result;
      }
      case FrameType::Error:
        fatal("sweep daemon rejected the request: %s",
              parseErrorPayload(frame.payload).c_str());
      case FrameType::SweepAccepted:
        break;
      default:
        fatalIo("unexpected %s frame from the sweep daemon",
                frameTypeName(frame.type));
    }
    if (!recvFrame(*stream, frame))
        fatalIo("sweep daemon at %s died while running the request",
                endpoint.c_str());
    if (frame.type == FrameType::Error)
        fatal("sweep request failed: %s",
              parseErrorPayload(frame.payload).c_str());
    if (frame.type != FrameType::SweepResult)
        fatalIo("unexpected %s frame while awaiting the sweep result",
                frameTypeName(frame.type));
    result.accepted = true;
    result.report = std::move(frame.payload);
    return result;
}

std::string
queryStatus(const std::string &endpoint)
{
    std::unique_ptr<Stream> stream = connect(endpoint);
    if (!sendFrame(*stream, FrameType::StatusRequest, "{}"))
        fatalIo("sweep daemon at %s hung up on the status request",
                endpoint.c_str());
    Frame frame;
    if (!recvFrame(*stream, frame))
        fatalIo("sweep daemon at %s closed without a status reply",
                endpoint.c_str());
    if (frame.type != FrameType::StatusReply)
        fatalIo("unexpected %s frame instead of a status reply",
                frameTypeName(frame.type));
    return frame.payload;
}

} // namespace wsrs::svc
