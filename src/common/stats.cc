#include "stats.h"

#include "src/common/log.h"

namespace wsrs {

StatBase::StatBase(StatGroup &group, std::string name, std::string desc)
    : name_(group.name() + "." + std::move(name)), desc_(std::move(desc))
{
    group.add(this);
}

Histogram::Histogram(StatGroup &group, std::string name, std::string desc,
                     std::size_t buckets)
    : StatBase(group, std::move(name), std::move(desc)), buckets_(buckets, 0)
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
Counter::dumpJson(std::ostream &os) const
{
    os << "\"" << jsonEscape(name()) << "\": " << value_;
}

void
Histogram::dumpJson(std::ostream &os) const
{
    os << "\"" << jsonEscape(name()) << "\": {\"buckets\": [";
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        os << (i ? ", " : "") << buckets_[i];
    os << "], \"overflow\": " << overflow_ << ", \"samples\": " << samples_
       << ", \"mean\": ";
    dumpJsonDouble(os, mean());
    os << "}";
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const StatBase *s : stats_) {
        os << (first ? "" : ", ");
        s->dumpJson(os);
        first = false;
    }
    os << "}";
}

} // namespace wsrs
