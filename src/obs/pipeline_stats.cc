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

void
PipelineStats::creditQuiescent(Cycle cycles, const IssueStall *issue,
                               const unsigned *occupancy,
                               const Counts<RenameStall> &rename,
                               CommitStall commit)
{
    WSRS_ASSERT(cycles < cyclesToSample());
    for (unsigned c = 0; c < numClusters_; ++c) {
        issue_[c][static_cast<std::size_t>(issue[c])] += cycles;
        occupancySum_[c] += cycles * occupancy[c];
    }
    for (std::size_t k = 0; k < rename.size(); ++k)
        rename_[k] += rename[k];
    commit_[static_cast<std::size_t>(commit)] += cycles;
    if (intervalPeriod_ != 0)
        intervalCountdown_ -= cycles;
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

/**
 * One {buckets, overflow, samples, mean} object. The counts are integers
 * below 2^53, so the mean is the one an incrementally summed double gives.
 */
void
dumpHist(JsonWriter &w, std::span<const std::uint64_t> buckets,
         std::uint64_t overflow = 0, std::uint64_t overflowSum = 0)
{
    std::uint64_t samples = overflow, sum = overflowSum;
    for (std::size_t v = 0; v < buckets.size(); ++v) {
        samples += buckets[v];
        sum += v * buckets[v];
    }
    w.beginObject().field("buckets", buckets).field("overflow", overflow)
        .field("samples", samples)
        .field("mean", samples ? static_cast<double>(sum) / samples : 0.0)
        .endObject();
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
    // Buckets only: every stall cycle has a cause, and samples and sums
    // are derived when dumping.
    for (auto &counts : std::span(self.issue_).first(self.numClusters_))
        for (auto &b : counts)
            io.u64(b);
    for (auto &b : self.rename_)
        io.u64(b);
    for (auto &b : self.commit_)
        io.u64(b);
    for (auto &b : self.wakeup_)
        io.u64(b);
    io.u64(self.wakeupOverflow_);
    io.u64(self.wakeupOverflowSum_);
    // Each overflowed wait lasted at least kWakeupBuckets cycles.
    ckpt::check(io,
                self.wakeupOverflowSum_ / kWakeupBuckets >=
                        self.wakeupOverflow_ &&
                    (self.wakeupOverflow_ != 0 ||
                     self.wakeupOverflowSum_ == 0),
                "wake-up overflow sum disagrees with its overflow count");
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
