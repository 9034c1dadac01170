/**
 * @file
 * Lightweight statistics package: named counters and histograms that
 * register themselves with a StatGroup and are dumped as one JSON object.
 * Modeled (loosely) on the gem5 stats package, sized for this simulator.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace wsrs {

class StatGroup;

/**
 * Version tag of the machine-readable statistics documents produced by
 * StatGroup::dumpJson / Core::dumpStatsJson. Consumers
 * (scripts/check_stats_schema.py, scripts/stall_report.py) key their
 * validation on this string; bump it when the shape of the JSON changes.
 */
inline constexpr const char *kStatsJsonSchema = "wsrs-stats-v1";

/** Base class for every named statistic. */
class StatBase
{
  public:
    StatBase(StatGroup &group, std::string name);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }

    /** Write this statistic's value; StatGroup writes its name as key. */
    virtual void dumpJson(JsonWriter &w) const = 0;

  private:
    std::string name_;
};

/** Monotonic (or at least additive) event counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }

    /** Checkpoint restore: overwrite the count. */
    void restore(std::uint64_t v) { value_ = v; }

    void dumpJson(JsonWriter &w) const override;
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Fixed-bucket histogram over [0, buckets); samples at or beyond the top
 * land in an explicit overflow bucket (counted in samples() and mean(),
 * reported separately by dumpJson so saturation is detectable).
 */
class Histogram : public StatBase
{
  public:
    Histogram(StatGroup &group, std::string name, std::size_t buckets);

    void
    sample(std::uint64_t v, std::uint64_t count = 1)
    {
        if (v < buckets_.size())
            buckets_[static_cast<std::size_t>(v)] += count;
        else
            overflow_ += count;
        samples_ += count;
        sum_ += static_cast<double>(v) * static_cast<double>(count);
    }

    /**
     * Checkpoint restore: overwrite the measurement state. @p buckets must
     * match the configured bucket count.
     */
    void restore(std::vector<std::uint64_t> buckets, std::uint64_t overflow,
                 std::uint64_t samples, double sum);

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::size_t numBuckets() const { return buckets_.size(); }
    /** Samples that fell at or beyond numBuckets(). */
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t samples() const { return samples_; }
    /** Raw sample sum (exposed so checkpoints round-trip bit-exactly). */
    double sum() const { return sum_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }

    /** {buckets, overflow, samples, mean}, without the stat's name. */
    void dumpJson(JsonWriter &w) const override;
    /** Reset to the freshly-constructed state. */
    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
};

/**
 * Owner of a set of statistics. Statistics register on construction and are
 * dumped in registration order. The group does not own the statistics
 * objects (they are members of the structures being instrumented); it must
 * outlive them being dumped, not the stats themselves.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Called by StatBase's constructor. */
    void add(StatBase *stat) { stats_.push_back(stat); }

    /** Dump all registered statistics as one JSON object. */
    void dumpJson(JsonWriter &w) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<StatBase *> stats_;
};

} // namespace wsrs
