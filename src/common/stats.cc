#include "stats.h"

#include "src/common/log.h"

namespace wsrs {

StatBase::StatBase(StatGroup &group, std::string name)
    : name_(group.name() + "." + std::move(name))
{
    group.add(this);
}

Histogram::Histogram(StatGroup &group, std::string name, std::size_t buckets)
    : StatBase(group, std::move(name)), buckets_(buckets, 0)
{
}

void
Histogram::restore(std::vector<std::uint64_t> buckets,
                   std::uint64_t overflow, std::uint64_t samples, double sum)
{
    if (buckets.size() != buckets_.size())
        fatal("histogram '%s' restore: %zu buckets, expected %zu",
              name().c_str(), buckets.size(), buckets_.size());
    buckets_ = std::move(buckets);
    overflow_ = overflow;
    samples_ = samples;
    sum_ = sum;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    overflow_ = 0;
    samples_ = 0;
    sum_ = 0.0;
}

void
Counter::dumpJson(JsonWriter &w) const
{
    w.value(value_);
}

void
Histogram::dumpJson(JsonWriter &w) const
{
    w.beginObject().field("buckets", buckets_).field("overflow", overflow_);
    w.field("samples", samples_).field("mean", mean()).endObject();
}

void
StatGroup::dumpJson(JsonWriter &w) const
{
    w.beginObject();
    for (const StatBase *s : stats_)
        s->dumpJson(w.key(s->name()));
    w.endObject();
}

} // namespace wsrs
