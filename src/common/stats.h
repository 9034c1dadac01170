/**
 * @file
 * Lightweight statistics package: named counters that register
 * themselves with a StatGroup and are dumped as one JSON object.
 * Modeled (loosely) on the gem5 stats package, sized for this simulator.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace wsrs {

class Counter;

/**
 * Version tag of the machine-readable statistics documents produced by
 * StatGroup::dumpJson / Core::dumpStatsJson. Consumers
 * (scripts/check_stats_schema.py, scripts/stall_report.py) key their
 * validation on this string; bump it when the shape of the JSON changes.
 */
inline constexpr const char *kStatsJsonSchema = "wsrs-stats-v1";

/**
 * Owner of a set of counters. Counters register on construction and are
 * dumped in registration order. The group does not own the counters
 * (they are members of the structures being instrumented); it must
 * outlive them being dumped, not the counters themselves.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Called by Counter's constructor. */
    void add(Counter *c) { stats_.push_back(c); }

    /** Dump all registered counters as one JSON object. */
    void dumpJson(JsonWriter &w) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<Counter *> stats_;
};

/** Monotonic (or at least additive) event counter. */
class Counter
{
  public:
    /** Register in @p group under the name "<group>.<name>". */
    Counter(StatGroup &group, std::string name)
        : name_(group.name() + "." + std::move(name))
    {
        group.add(this);
    }

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    const std::string &name() const { return name_; }

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }

    /** Checkpoint restore: overwrite the count. */
    void restore(std::uint64_t v) { value_ = v; }

    void reset() { value_ = 0; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

inline void
StatGroup::dumpJson(JsonWriter &w) const
{
    w.beginObject();
    for (const Counter *c : stats_)
        w.field(c->name(), c->value());
    w.endObject();
}

} // namespace wsrs
