#include "pipeline_stats.h"

#include <cmath>
#include <span>

#include "src/common/log.h"

namespace wsrs::obs {

const char *
issueStallName(IssueStall c)
{
    switch (c) {
      case IssueStall::Issued:       return "issued";
      case IssueStall::EmptyCluster: return "empty-cluster";
      case IssueStall::OperandWait:  return "operand-wait";
      case IssueStall::ForwardWait:  return "intercluster-forward-wait";
      case IssueStall::ResourceBusy: return "resource-busy";
      case IssueStall::NoReadyUop:   return "no-ready-uop";
      default:                       return "invalid";
    }
}

const char *
renameStallName(RenameStall c)
{
    switch (c) {
      case RenameStall::FullWidth:        return "full-width";
      case RenameStall::FrontendEmpty:    return "frontend-empty";
      case RenameStall::BranchRedirect:   return "branch-redirect";
      case RenameStall::RobFull:          return "rob-full";
      case RenameStall::ClusterWindowFull: return "cluster-window-full";
      case RenameStall::LsqFull:          return "lsq-full";
      case RenameStall::SubsetFull:       return "subset-full";
      case RenameStall::PhysRegExhausted: return "phys-reg-exhausted";
      default:                            return "invalid";
    }
}

const char *
commitStallName(CommitStall c)
{
    switch (c) {
      case CommitStall::Committed:     return "committed";
      case CommitStall::RobEmpty:      return "rob-empty";
      case CommitStall::HeadNotIssued: return "head-not-issued";
      case CommitStall::HeadExecuting: return "head-executing";
      default:                         return "invalid";
    }
}

const char *
memQueueStallName(MemQueueStall c)
{
    switch (c) {
      case MemQueueStall::QueueFull: return "queue-full";
      case MemQueueStall::BankBusy:  return "bank-busy";
      case MemQueueStall::BankPrep:  return "bank-prep";
      case MemQueueStall::DataBurst: return "data-burst";
      case MemQueueStall::Idle:      return "idle";
      default:                       return "invalid";
    }
}

PipelineStats::PipelineStats(unsigned num_clusters)
    : numClusters_(num_clusters)
{
    WSRS_ASSERT(num_clusters > 0 && num_clusters <= kClusterCap);
}

void
PipelineStats::enableIntervals(Cycle period)
{
    intervalPeriod_ = period;
    intervalCountdown_ = period;
    intervals_.clear();
}

void
PipelineStats::reset()
{
    issue_ = {};
    rename_ = {};
    commit_ = {};
    wakeup_ = {};
    wakeupOverflow_ = 0;
    wakeupOverflowSum_ = 0;
    occupancySum_.fill(0);
    intervalCountdown_ = intervalPeriod_;
    intervals_.clear();
}

namespace {

template <typename Enum, typename NameFn>
std::vector<const char *>
legend(NameFn name)
{
    std::vector<const char *> names;
    for (std::size_t i = 0; i < static_cast<std::size_t>(Enum::kCount); ++i)
        names.push_back(name(static_cast<Enum>(i)));
    return names;
}

/** Samples (overflow included) and Σ value·count over the buckets. */
struct Totals
{
    std::uint64_t samples, sum;
};

Totals
totals(std::span<const std::uint64_t> buckets, std::uint64_t overflow)
{
    Totals t{overflow, 0};
    for (std::size_t v = 0; v < buckets.size(); ++v) {
        t.samples += buckets[v];
        t.sum += v * buckets[v];
    }
    return t;
}

/**
 * One {buckets, overflow, samples, mean} object. The counts are integers
 * below 2^53, so the mean is the one an incrementally summed double gives.
 */
void
dumpHist(JsonWriter &w, std::span<const std::uint64_t> buckets,
         std::uint64_t overflow = 0, std::uint64_t overflowSum = 0)
{
    const Totals t = totals(buckets, overflow);
    const double sum = static_cast<double>(t.sum + overflowSum);
    w.beginObject().field("buckets", buckets).field("overflow", overflow)
        .field("samples", t.samples)
        .field("mean", t.samples ? sum / t.samples : 0.0).endObject();
}

/**
 * One histogram in its checkpoint layout: u64 bucket count, the buckets,
 * overflow, samples, then the d64 sum. Samples and sum are derived when
 * saving, so loading rejects any that disagree with the buckets and the
 * overflow, and an overflow sum below buckets.size() per overflow sample.
 */
template <typename Io, typename Buckets, typename Count>
void
transferHist(Io &io, Buckets &buckets, Count &overflow, Count &overflowSum)
{
    ckpt::expect(io, buckets.size(), 8, "histogram bucket count mismatch");
    for (auto &b : buckets)
        io.u64(b);
    io.u64(overflow);
    const Totals t = totals(buckets, overflow);
    std::uint64_t samples = t.samples;
    io.u64(samples);
    ckpt::check(io, samples == t.samples,
                "histogram samples disagree with its buckets");
    double sum = static_cast<double>(t.sum + overflowSum);
    io.d64(sum);
    ckpt::check(io,
                std::isfinite(sum) && !std::signbit(sum) && sum < 0x1p64 &&
                    sum == std::floor(sum),
                "histogram sum is not a finite integer");
    if constexpr (Io::kLoading) {
        const auto total = static_cast<std::uint64_t>(sum);
        const std::uint64_t extra = total - t.sum;
        ckpt::check(io,
                    total >= t.sum &&
                        (overflow ? extra / buckets.size() >= overflow
                                  : extra == 0),
                    "histogram sum disagrees with its buckets and overflow");
        overflowSum = extra;
    }
}

/** A stall-cause histogram: every cycle has a cause, so none overflow. */
template <typename Io, typename Buckets>
void
transferCauses(Io &io, Buckets &buckets)
{
    std::uint64_t overflow = 0, overflowSum = 0;
    transferHist(io, buckets, overflow, overflowSum);
    ckpt::check(io, overflow == 0, "stall-cause histogram overflows");
}

} // namespace

void
PipelineStats::dumpJson(JsonWriter &w) const
{
    // Consumers index histograms by position (per-cluster arrays) or by
    // local key.
    w.beginObject().key("stall_causes").beginObject()
        .field("issue", legend<IssueStall>(issueStallName))
        .field("rename", legend<RenameStall>(renameStallName))
        .field("commit", legend<CommitStall>(commitStallName))
        .endObject()
        .key("issue_stall").beginArray();
    for (unsigned c = 0; c < numClusters_; ++c)
        dumpHist(w, issue_[c]);
    w.endArray();
    dumpHist(w.key("rename_stall"), rename_);
    dumpHist(w.key("commit_stall"), commit_);
    dumpHist(w.key("wakeup_latency"), wakeup_, wakeupOverflow_,
             wakeupOverflowSum_);
    w.field("occupancy_sum", std::span(occupancySum_).first(numClusters_))
        .key("intervals").beginObject()
        .field("period", intervalPeriod_)
        .field("fields", std::array{"cycle", "committed", "occupancy"})
        .key("samples").beginArray();
    for (const IntervalSample &s : intervals_)
        w.beginArray().value(s.cycle).value(s.committed)
            .value(std::span(s.occupancy).first(numClusters_)).endArray();
    w.endArray().endObject().endObject();
}

template <typename Self, typename Io>
void
PipelineStats::transfer(Self &self, Io &io)
{
    ckpt::expect(io, self.numClusters_, 4,
                 "pipeline-stats cluster count mismatch");
    for (auto &counts : std::span(self.issue_).first(self.numClusters_))
        transferCauses(io, counts);
    transferCauses(io, self.rename_);
    transferCauses(io, self.commit_);
    transferHist(io, self.wakeup_, self.wakeupOverflow_,
                 self.wakeupOverflowSum_);
    for (auto &s : self.occupancySum_)
        io.u64(s);
    io.u64(self.intervalCountdown_);
    const std::uint64_t n = ckpt::count(io, self.intervals_.size(),
                                        16 + 4 * kClusterCap,
                                        "interval sample");
    if constexpr (Io::kLoading)
        self.intervals_.assign(n, IntervalSample{});
    for (auto &s : self.intervals_) {
        io.u64(s.cycle);
        io.u64(s.committed);
        for (auto &o : s.occupancy)
            io.u32(o);
    }
}

void PipelineStats::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void PipelineStats::restore(ckpt::Reader &r) { transfer(*this, r); }

} // namespace wsrs::obs
