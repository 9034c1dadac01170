#include "pipeline_stats.h"

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

PipelineStats::PipelineStats(StatGroup &group, unsigned num_clusters)
    : numClusters_(num_clusters)
{
    WSRS_ASSERT(num_clusters > 0 && num_clusters <= kClusterCap);
    issueStall_.reserve(numClusters_);
    for (unsigned c = 0; c < numClusters_; ++c) {
        issueStall_.push_back(std::make_unique<Histogram>(
            group, "issue_stall_c" + std::to_string(c),
            static_cast<std::size_t>(IssueStall::kCount)));
    }
    renameStall_ = std::make_unique<Histogram>(
        group, "rename_stall", static_cast<std::size_t>(RenameStall::kCount));
    commitStall_ = std::make_unique<Histogram>(
        group, "commit_stall", static_cast<std::size_t>(CommitStall::kCount));
    wakeupLatency_ = std::make_unique<Histogram>(group, "wakeup_latency",
                                                 kWakeupBuckets);
}

void
PipelineStats::enableIntervals(Cycle period)
{
    intervalPeriod_ = period;
    intervalCountdown_ = period;
    intervals_.clear();
}

void
PipelineStats::flush() const
{
    for (unsigned c = 0; c < numClusters_; ++c) {
        auto &pending = pendingIssue_[c];
        for (std::size_t v = 0; v < pending.size(); ++v) {
            if (pending[v]) {
                issueStall_[c]->sample(v, pending[v]);
                pending[v] = 0;
            }
        }
        occupancySum_[c] += pendingOccupancy_[c];
        pendingOccupancy_[c] = 0;
    }
    for (std::size_t v = 0; v < pendingRename_.size(); ++v) {
        if (pendingRename_[v]) {
            renameStall_->sample(v, pendingRename_[v]);
            pendingRename_[v] = 0;
        }
    }
    for (std::size_t v = 0; v < pendingCommit_.size(); ++v) {
        if (pendingCommit_[v]) {
            commitStall_->sample(v, pendingCommit_[v]);
            pendingCommit_[v] = 0;
        }
    }
    for (std::size_t v = 0; v < pendingWakeup_.size(); ++v) {
        if (pendingWakeup_[v]) {
            wakeupLatency_->sample(v, pendingWakeup_[v]);
            pendingWakeup_[v] = 0;
        }
    }
}

void
PipelineStats::reset()
{
    discardPending();
    for (auto &h : issueStall_)
        h->reset();
    renameStall_->reset();
    commitStall_->reset();
    wakeupLatency_->reset();
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

} // namespace

void
PipelineStats::dumpJson(JsonWriter &w) const
{
    // Histograms are written without their group-qualified stat names,
    // so consumers index by position (per-cluster arrays) or local key.
    flush();
    w.beginObject().key("stall_causes").beginObject()
        .field("issue", legend<IssueStall>(issueStallName))
        .field("rename", legend<RenameStall>(renameStallName))
        .field("commit", legend<CommitStall>(commitStallName))
        .endObject()
        .key("issue_stall").beginArray();
    for (const auto &h : issueStall_)
        h->dumpJson(w);
    w.endArray();
    renameStall_->dumpJson(w.key("rename_stall"));
    commitStall_->dumpJson(w.key("commit_stall"));
    wakeupLatency_->dumpJson(w.key("wakeup_latency"));
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

namespace {

template <typename Io>
void
transferHist(Io &io, Histogram &h)
{
    std::vector<std::uint64_t> buckets = h.buckets();
    std::uint64_t overflow = h.overflow();
    std::uint64_t samples = h.samples();
    double sum = h.sum();
    ckpt::vecExact(io, buckets, "histogram buckets");
    io.u64(overflow);
    io.u64(samples);
    io.d64(sum);
    if constexpr (Io::kLoading)
        h.restore(std::move(buckets), overflow, samples, sum);
}

} // namespace

template <typename Self, typename Io>
void
PipelineStats::transfer(Self &self, Io &io)
{
    if constexpr (Io::kLoading)
        self.discardPending();
    else
        self.flush();
    ckpt::expect(io, self.numClusters_, 4,
                 "pipeline-stats cluster count mismatch");
    for (auto &h : self.issueStall_)
        transferHist(io, *h);
    transferHist(io, *self.renameStall_);
    transferHist(io, *self.commitStall_);
    transferHist(io, *self.wakeupLatency_);
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
