/**
 * @file
 * Serve-daemon contract: request/result round trips with per-request
 * isolation, bounded admission with explicit backpressure, live status,
 * config errors reported to the client (not crashing the daemon), and
 * the frame log written on shutdown.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/log.h"
#include "src/svc/json_min.h"
#include "src/svc/service.h"
#include "src/svc/transport.h"

namespace wsrs::svc {
namespace {

std::string
endpointFor(const char *name)
{
    return "unix:" + testing::TempDir() + "wsrs_serve_" + name + ".sock";
}

constexpr const char *kTinyRequest =
    R"({"benchmarks": ["gzip"], "machines": ["RR-256"],
        "uops": 2000, "warmup": 500})";

TEST(Service, RunsARequestAndStreamsTheReportBack)
{
    ServiceOptions opt;
    opt.endpoint = endpointFor("basic");
    SweepService service(opt);
    service.start();

    const SubmitResult res = submitSweep(service.endpoint(), kTinyRequest);
    ASSERT_TRUE(res.accepted);
    const JsonValue report = parseJson(res.report, "sweep report");
    EXPECT_EQ(report.getString("schema", ""), "wsrs-sweep-report-v1");
    const auto &jobs = report.get("jobs").asArray();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].getString("benchmark", ""), "gzip");
    EXPECT_TRUE(jobs[0].getBool("ok", false));
    service.stop();
}

TEST(Service, IsolatesConcurrentRequests)
{
    ServiceOptions opt;
    opt.endpoint = endpointFor("iso");
    opt.executors = 2;
    opt.queueDepth = 4;
    SweepService service(opt);
    service.start();

    // Two concurrent requests with different seeds: each report must
    // reflect its own request (no cross-request state bleed).
    std::string a, b;
    std::thread ta([&] {
        a = submitSweep(service.endpoint(),
                        R"({"benchmarks": ["gzip"], "machines":
                            ["RR-256"], "uops": 2000, "warmup": 500,
                            "seed": 1})")
                .report;
    });
    std::thread tb([&] {
        b = submitSweep(service.endpoint(),
                        R"({"benchmarks": ["mcf"], "machines":
                            ["WSRS-RC-512"], "uops": 2000, "warmup": 500,
                            "seed": 2})")
                .report;
    });
    ta.join();
    tb.join();
    const JsonValue ra = parseJson(a, "report a");
    const JsonValue rb = parseJson(b, "report b");
    EXPECT_EQ(ra.get("jobs").asArray()[0].getString("benchmark", ""),
              "gzip");
    EXPECT_EQ(rb.get("jobs").asArray()[0].getString("benchmark", ""),
              "mcf");
    service.stop();
}

TEST(Service, RejectsWithRetryHintWhenTheQueueIsFull)
{
    ServiceOptions opt;
    opt.endpoint = endpointFor("full");
    opt.executors = 1;
    opt.queueDepth = 1;
    SweepService service(opt);
    service.start();

    // A slow request occupies the executor and a second one fills the
    // queue; once status shows both in place, the next submission must
    // be rejected immediately with a retry hint.
    constexpr const char *kSlowRequest =
        R"({"benchmarks": ["gzip"], "machines": ["RR-256"],
            "uops": 3000000, "warmup": 100000})";
    std::thread slow([&] { submitSweep(service.endpoint(), kSlowRequest); });
    std::thread queued([&] {
        // Wait until the first request is running so this one queues
        // behind it instead of racing it for the executor.
        for (int i = 0; i < 500; ++i) {
            const JsonValue s = parseJson(service.statusJson(), "status");
            if (s.getInt("running", 0) >= 1)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        submitSweep(service.endpoint(), kSlowRequest);
    });
    for (int i = 0; i < 500; ++i) {
        const JsonValue s = parseJson(service.statusJson(), "status");
        if (s.getInt("running", 0) >= 1 && s.getInt("queued", 0) >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    const SubmitResult rejected =
        submitSweep(service.endpoint(), kTinyRequest);
    EXPECT_FALSE(rejected.accepted);
    EXPECT_GT(rejected.retryAfterMs, 0u);
    EXPECT_NE(rejected.reason.find("queue full"), std::string::npos);

    slow.join();
    queued.join();
    const JsonValue status =
        parseJson(service.statusJson(), "status");
    EXPECT_GE(status.get("svc").getInt("backpressure_rejects", 0), 1);
    service.stop();
}

TEST(Service, ReportsConfigErrorsToTheClient)
{
    ServiceOptions opt;
    opt.endpoint = endpointFor("badcfg");
    SweepService service(opt);
    service.start();

    try {
        submitSweep(service.endpoint(),
                    R"({"benchmarks": ["no-such-benchmark"]})");
        FAIL() << "invalid benchmark admitted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("no-such-benchmark"),
                  std::string::npos);
    }
    // The daemon survives and still serves valid requests.
    EXPECT_TRUE(submitSweep(service.endpoint(), kTinyRequest).accepted);
    service.stop();
}

TEST(Service, StatusTracksRequestLifecycles)
{
    ServiceOptions opt;
    opt.endpoint = endpointFor("status");
    SweepService service(opt);
    service.start();

    submitSweep(service.endpoint(), kTinyRequest);
    const std::string statusText = queryStatus(service.endpoint());
    const JsonValue status = parseJson(statusText, "status");
    EXPECT_EQ(status.getString("schema", ""), "wsrs-svc-status-v1");
    EXPECT_EQ(status.get("svc").getInt("requests_admitted", 0), 1);
    EXPECT_EQ(status.get("svc").getInt("requests_completed", 0), 1);
    const auto &requests = status.get("requests").asArray();
    ASSERT_EQ(requests.size(), 1u);
    EXPECT_EQ(requests[0].getString("state", ""), "done");
    EXPECT_EQ(requests[0].getInt("jobs_total", 0), 1);
    EXPECT_EQ(requests[0].getInt("jobs_done", 0), 1);
    service.stop();
}

TEST(Service, AnswersHttpGetOnTheSameEndpoint)
{
    ServiceOptions opt;
    opt.endpoint = endpointFor("http");
    SweepService service(opt);
    service.start();
    submitSweep(service.endpoint(), kTinyRequest);

    const auto get = [&](const std::string &path) {
        auto stream = connect(service.endpoint());
        const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
        EXPECT_TRUE(stream->writeAll(req.data(), req.size()));
        std::string out;
        char buf[4096];
        long n;
        while ((n = stream->read(buf, sizeof buf)) > 0)
            out.append(buf, static_cast<std::size_t>(n));
        return out;
    };

    const std::string metrics = get("/metrics");
    EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find(
                  "# TYPE wsrs_svc_requests_admitted_total counter"),
              std::string::npos);
    EXPECT_NE(metrics.find("wsrs_svc_requests_admitted_total 1"),
              std::string::npos);
    // The request's runner instruments joined the same registry.
    EXPECT_NE(metrics.find("wsrs_runner_jobs_total 1"),
              std::string::npos);

    const std::string status = get("/status");
    EXPECT_NE(status.find("wsrs-svc-status-v1"), std::string::npos);

    const std::string metricsJson = get("/metrics.json");
    EXPECT_NE(metricsJson.find("wsrs-metrics-v1"), std::string::npos);

    EXPECT_NE(get("/nope").find("HTTP/1.0 404"), std::string::npos);
    service.stop();
}

TEST(Service, StreamsTheFrameLogAsJsonl)
{
    const std::string logPath =
        testing::TempDir() + "wsrs_serve_frames.jsonl";
    ServiceOptions opt;
    opt.endpoint = endpointFor("log");
    opt.frameLogPath = logPath;
    {
        SweepService service(opt);
        service.start();
        submitSweep(service.endpoint(), kTinyRequest);

        // Flush-on-drain: with the queue empty again, the buffered log
        // (header + the request's frames) reaches the filesystem before
        // stop. The flush runs on the executor thread just after our
        // reply, so poll briefly.
        bool flushed = false;
        for (int i = 0; i < 200 && !flushed; ++i) {
            std::ifstream peek(logPath);
            std::ostringstream buf;
            buf << peek.rdbuf();
            flushed = buf.str().find("sweep_result") != std::string::npos;
            if (!flushed)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        EXPECT_TRUE(flushed);

        queryStatus(service.endpoint());
        service.stop();
    }
    std::ifstream is(logPath);
    ASSERT_TRUE(is.good());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    const JsonValue header = parseJson(line, "frame log header");
    EXPECT_EQ(header.getString("schema", ""), "wsrs-svc-frames-v1");
    EXPECT_EQ(header.getString("format", ""), "jsonl");

    std::size_t frames = 0;
    bool sawRequest = false, sawResult = false, sawStatus = false;
    bool sawTrailer = false;
    while (std::getline(is, line)) {
        const JsonValue rec = parseJson(line, "frame log line");
        if (!rec.has("dir")) {
            // Trailer: frame count + drops, written once on finish.
            EXPECT_EQ(rec.getInt("frames", -1),
                      static_cast<long long>(frames));
            EXPECT_EQ(rec.getInt("dropped_frames", -1), 0);
            sawTrailer = true;
            continue;
        }
        ++frames;
        const std::string type = rec.getString("type", "");
        sawRequest |= type == "sweep_request";
        sawResult |= type == "sweep_result";
        sawStatus |= type == "status_reply";
        EXPECT_TRUE(rec.getString("dir", "") == "rx" ||
                    rec.getString("dir", "") == "tx");
        EXPECT_GE(rec.getInt("conn", -1), 1);
        EXPECT_GE(rec.getInt("t_ms", -1), 0);
    }
    EXPECT_GE(frames, 4u);
    EXPECT_TRUE(sawRequest);
    EXPECT_TRUE(sawResult);
    EXPECT_TRUE(sawStatus);
    EXPECT_TRUE(sawTrailer);
}

} // namespace
} // namespace wsrs::svc
