#include "metrics_registry.h"

#include <algorithm>
#include <cctype>
#include <ostream>

#include "src/common/json.h"
#include "src/common/log.h"

namespace wsrs::obs {

namespace {

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_')
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    });
}

const char *
kindName(int kind)
{
    switch (kind) {
      case 0: return "counter";
      case 1: return "gauge";
      default: return "histogram";
    }
}

} // namespace

MetricHistogram::MetricHistogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1])
{
    WSRS_ASSERT(!bounds_.empty());
    WSRS_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()));
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

void
MetricHistogram::observe(std::uint64_t v)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t idx =
        static_cast<std::size_t>(it - bounds_.begin()); // +Inf if past end
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name,
                              const std::string &help, Kind kind,
                              std::vector<std::uint64_t> bounds)
{
    WSRS_ASSERT(validMetricName(name));
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = byName_.find(name);
    if (it != byName_.end()) {
        if (it->second->kind != kind)
            WSRS_PANIC("metric '%s' re-registered as %s (was %s)",
                       name.c_str(), kindName(static_cast<int>(kind)),
                       kindName(static_cast<int>(it->second->kind)));
        return *it->second;
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->help = help;
    entry->kind = kind;
    if (kind == Kind::Histogram)
        entry->hist = std::make_unique<MetricHistogram>(std::move(bounds));
    Entry &ref = *entry;
    byName_[name] = entry.get();
    entries_.push_back(std::move(entry));
    return ref;
}

MetricCounter &
MetricsRegistry::counter(const std::string &name, const std::string &help)
{
    return findOrCreate(name, help, Kind::Counter).counter;
}

MetricGauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    return findOrCreate(name, help, Kind::Gauge).gauge;
}

MetricHistogram &
MetricsRegistry::histogram(const std::string &name, const std::string &help,
                           std::vector<std::uint64_t> bounds)
{
    return *findOrCreate(name, help, Kind::Histogram, std::move(bounds)).hist;
}

std::vector<std::uint64_t>
MetricsRegistry::latencyBucketsMs()
{
    return {1, 2, 5, 10, 20, 50, 100, 200, 500,
            1000, 2000, 5000, 10000, 30000, 60000};
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter w(os, JsonWriter::Style::Spaced);
    w.beginObject().field("schema", kMetricsJsonSchema).key("metrics");
    w.beginArray();
    for (const auto &e : entries_) {
        w.beginObject()
            .field("name", e->name)
            .field("type", kindName(static_cast<int>(e->kind)))
            .field("help", e->help);
        switch (e->kind) {
          case Kind::Counter:
            w.field("value", e->counter.value());
            break;
          case Kind::Gauge:
            w.field("value", e->gauge.value());
            break;
          case Kind::Histogram: {
            const MetricHistogram &h = *e->hist;
            w.field("count", h.count()).field("sum", h.sum());
            w.key("buckets").beginArray();
            for (std::size_t i = 0; i < h.bounds().size(); ++i)
                w.beginObject().field("le", h.bounds()[i])
                    .field("count", h.bucketCount(i)).endObject();
            w.endArray().field("overflow", h.bucketCount(h.bounds().size()));
            break;
          }
        }
        w.endObject();
    }
    w.endArray().endObject();
    os << "\n";
}

MetricsRegistry &
MetricsRegistry::process()
{
    static MetricsRegistry instance;
    return instance;
}

} // namespace wsrs::obs
