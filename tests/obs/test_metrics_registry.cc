#include "src/obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

namespace wsrs::obs {
namespace {

TEST(MetricsRegistry, CounterGaugeBasics)
{
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("wsrs_test_events_total", "events");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);

    MetricGauge &g = reg.gauge("wsrs_test_depth", "queue depth");
    g.set(7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);

    // Re-registration returns the same instrument.
    EXPECT_EQ(&reg.counter("wsrs_test_events_total", "events"), &c);
    EXPECT_EQ(&reg.gauge("wsrs_test_depth", ""), &g);
}

TEST(MetricsRegistry, HistogramBuckets)
{
    MetricsRegistry reg;
    MetricHistogram &h =
        reg.histogram("wsrs_test_latency_ms", "latency", {1, 10, 100});
    h.observe(0);   // le=1
    h.observe(1);   // le=1 (inclusive bound)
    h.observe(5);   // le=10
    h.observe(100); // le=100
    h.observe(101); // +Inf
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 207u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // overflow
}

TEST(MetricsRegistry, JsonExportShape)
{
    MetricsRegistry reg;
    reg.counter("wsrs_test_a_total", "a").add(3);
    reg.gauge("wsrs_test_b", "b").set(-2);
    reg.histogram("wsrs_test_c_ms", "c", {5, 50}).observe(7);
    std::ostringstream os;
    reg.writeJson(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"wsrs-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"wsrs_test_a_total\", "
                       "\"type\": \"counter\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"value\": -2"), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\": [{\"le\": 5, \"count\": 0}, "
                       "{\"le\": 50, \"count\": 1}]"),
              std::string::npos);
    EXPECT_EQ(doc.back(), '\n');
}

TEST(MetricsRegistry, ConcurrentUpdatesFold)
{
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("wsrs_test_mt_total", "");
    MetricHistogram &h = reg.histogram("wsrs_test_mt_ms", "", {10, 100});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                c.add();
                h.observe(static_cast<std::uint64_t>(t));
                // Concurrent registration of the same name must be safe
                // and return a stable instrument.
                if (i % 1000 == 0)
                    reg.counter("wsrs_test_mt_total", "").add(0);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    EXPECT_EQ(h.bucketCount(0), kThreads * kPerThread);
}

TEST(MetricsRegistry, ConcurrentFirstRegistrationSharesOneHistogram)
{
    // Every thread registers the same new histogram at once; each must
    // get the one instrument, with its buckets already built.
    MetricsRegistry reg;
    constexpr int kThreads = 8;
    std::atomic<int> waiting{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            waiting.fetch_sub(1);
            while (waiting.load() > 0)
                std::this_thread::yield();
            reg.histogram("wsrs_test_first_ms", "", {1}).observe(0);
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(reg.histogram("wsrs_test_first_ms", "", {1}).count(),
              static_cast<std::uint64_t>(kThreads));
}

} // namespace
} // namespace wsrs::obs
