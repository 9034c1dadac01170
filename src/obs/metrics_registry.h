/**
 * @file
 * Process-wide metrics registry: named counters, gauges and fixed-bucket
 * histograms with lock-free updates.
 *
 * The registry is the service-telemetry counterpart of the per-run
 * StatGroup tree (src/common/stats.h). StatGroup describes *one simulated
 * machine*; the registry describes *the process running sweeps* — lease
 * churn, warm-up cache behaviour, per-stage host latencies — and is
 * exported on demand as a `wsrs-metrics-v1` JSON document
 * (`wsrs-sim --metrics-out`, `wsrs-explore --metrics-out`).
 *
 * Concurrency contract: metric *updates* are relaxed atomics — no
 * locks, safe from any thread, cheap enough to leave compiled in (the
 * perf-smoke harness gates the instrumented-but-unexported path at <2%
 * of throughput). Registration and export take a mutex; both are cold.
 * Handles returned by counter()/gauge()/histogram() stay valid for the
 * registry's lifetime, and re-registering a name returns the existing
 * instrument.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wsrs::obs {

/** Schema tag of the JSON export. */
inline constexpr const char *kMetricsJsonSchema = "wsrs-metrics-v1";

/** Monotonically increasing event count. */
class MetricCounter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (queue depth, liveness, config). */
class MetricGauge
{
  public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket histogram. Bucket bounds are inclusive upper bounds in the
 * metric's unit (the Prometheus `le` convention), fixed at registration;
 * observations above the last bound land in the implicit +Inf bucket.
 */
class MetricHistogram
{
  public:
    explicit MetricHistogram(std::vector<std::uint64_t> bounds);

    void observe(std::uint64_t v);

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }
    /** Non-cumulative count of bucket @p i (bounds().size() buckets
     *  plus the +Inf overflow at index bounds().size()). */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_[i].load(std::memory_order_relaxed);
    }
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

  private:
    std::vector<std::uint64_t> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/** Named instrument directory with a JSON exporter. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register (or look up) an instrument. Names follow the Prometheus
     * convention `[a-zA-Z_][a-zA-Z0-9_]*`, prefixed `wsrs_`; counters end
     * in `_total` (see docs/observability.md for the naming scheme).
     * Re-registering an existing name returns the same instrument; asking
     * for a name that exists with a different kind panics (programmer
     * error).
     */
    MetricCounter &counter(const std::string &name,
                           const std::string &help);
    MetricGauge &gauge(const std::string &name, const std::string &help);
    MetricHistogram &histogram(const std::string &name,
                               const std::string &help,
                               std::vector<std::uint64_t> bounds);

    /** Default latency bucket bounds, in milliseconds. */
    static std::vector<std::uint64_t> latencyBucketsMs();

    /** Write the wsrs-metrics-v1 JSON document (trailing newline). */
    void writeJson(std::ostream &os) const;

    /** The process-wide registry (what `--metrics-out` writes). */
    static MetricsRegistry &process();

  private:
    enum class Kind { Counter, Gauge, Histogram };
    struct Entry
    {
        std::string name;
        std::string help;
        Kind kind;
        MetricCounter counter;
        MetricGauge gauge;
        std::unique_ptr<MetricHistogram> hist;
    };

    /** @p bounds are a new histogram's buckets, built before the entry
     *  is published so no reader sees a histogram entry without them. */
    Entry &findOrCreate(const std::string &name, const std::string &help,
                        Kind kind, std::vector<std::uint64_t> bounds = {});

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Entry>> entries_; ///< Registration order.
    std::map<std::string, Entry *> byName_;
};

} // namespace wsrs::obs
