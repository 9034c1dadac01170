/**
 * @file
 * Per-cycle stall-cause attribution and interval time-series for the
 * execution core.
 *
 * Every cycle, each pipeline stage records exactly one dominant reason for
 * its (lack of) progress:
 *
 *  - per-cluster issue stage: issued / empty cluster (icount imbalance) /
 *    waiting on intra-cluster operands / waiting on an intercluster
 *    forward / ready-but-resource-blocked / nothing wake-able;
 *  - rename stage: full width / front-end empty / branch redirect /
 *    ROB, cluster-window or LSQ full / destination subset out of free
 *    registers / whole register file exhausted;
 *  - commit stage: committed / ROB empty / head waiting to issue / head
 *    executing.
 *
 * The attribution lands in flat per-cause cycle counts, dumped as one
 * histogram object per stage (and per cluster for issue), so for every
 * cluster: sum(buckets) + overflow == cycles — an invariant
 * scripts/check_stats_schema.py enforces on exported JSON. Optionally a
 * periodic interval sampler records {cycle, committed, per-cluster
 * occupancy} every N cycles for time-series plots.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/json.h"
#include "src/common/types.h"

namespace wsrs::obs {

/** Upper bound on clusters; must cover core::kMaxClusters (the core
 *  static_asserts the relation so the two cannot drift apart). */
inline constexpr unsigned kClusterCap = 8;

/** Dominant per-cluster issue-stage outcome of one cycle. */
enum class IssueStall : std::uint8_t {
    Issued = 0,    ///< At least one micro-op issued from this cluster.
    EmptyCluster,  ///< No in-flight micro-ops (icount imbalance/starvation).
    OperandWait,   ///< Waiting only on same-cluster producers.
    ForwardWait,   ///< Waiting on an intercluster forward (+1 cycle hop).
    ResourceBusy,  ///< Ready micro-ops blocked on ports/units/store data.
    NoReadyUop,    ///< In-flight micro-ops all issued or in the memory pipe.
    kCount
};

/** Dominant rename-stage outcome of one cycle. */
enum class RenameStall : std::uint8_t {
    FullWidth = 0,     ///< Renamed the full fetch width.
    FrontendEmpty,     ///< Fetch queue empty / micro-ops still in the pipe.
    BranchRedirect,    ///< Fetch stalled on an unresolved mispredict.
    RobFull,
    ClusterWindowFull,
    LsqFull,
    SubsetFull,        ///< Target subset empty while others still have regs.
    PhysRegExhausted,  ///< No free register in any subset.
    kCount
};

/** Dominant commit-stage outcome of one cycle. */
enum class CommitStall : std::uint8_t {
    Committed = 0,
    RobEmpty,
    HeadNotIssued,  ///< Oldest micro-op still waiting in a scheduler.
    HeadExecuting,  ///< Oldest micro-op issued, result not yet complete.
    kCount
};

/**
 * Dominant memory-controller outcome of one cycle, charged on a
 * first-cause basis by the event-driven DRAM backend (src/memory/dram.h).
 * Cycles not claimed by any cause are Idle, so over any measurement
 * window sum(buckets) == core cycles — the same attribution invariant
 * the pipeline histograms obey, enforced on the exported `memory` stats
 * object by scripts/check_stats_schema.py.
 */
enum class MemQueueStall : std::uint8_t {
    QueueFull = 0, ///< Waiting for a slot in the bounded in-flight window.
    BankBusy,      ///< Target bank still serving an earlier request.
    BankPrep,      ///< Row precharge/activate/CAS before data moves.
    DataBurst,     ///< Line transfer occupying the shared data bus.
    Idle,          ///< No request in service (derived at dump time).
    kCount
};

const char *issueStallName(IssueStall c);
const char *renameStallName(RenameStall c);
const char *commitStallName(CommitStall c);
const char *memQueueStallName(MemQueueStall c);

/** One interval-sampler record. */
struct IntervalSample
{
    Cycle cycle = 0;               ///< Sample time (end of interval).
    std::uint64_t committed = 0;   ///< Cumulative committed micro-ops.
    std::array<std::uint32_t, kClusterCap> occupancy{};  ///< Snapshot.
};

/**
 * The core-side container: stall-cause counts, wake-up latency, occupancy
 * accounting and the interval sampler. The record* hooks run several
 * times per simulated cycle, so they only bump flat counters; dumpJson
 * derives each histogram's samples and sum from them.
 */
class PipelineStats : public ckpt::Snapshotter
{
  public:
    /** Wake-up latency histogram range; longer waits overflow. */
    static constexpr std::size_t kWakeupBuckets = 32;

    /** Cycles per cause of one stage. */
    template <typename Cause>
    using Counts =
        std::array<std::uint64_t, static_cast<std::size_t>(Cause::kCount)>;

    explicit PipelineStats(unsigned num_clusters);

    unsigned numClusters() const { return numClusters_; }

    void
    recordIssue(ClusterId c, IssueStall cause, unsigned occupancy)
    {
        ++issue_[c][static_cast<std::size_t>(cause)];
        occupancySum_[c] += occupancy;
    }

    void
    recordRename(RenameStall cause)
    {
        ++rename_[static_cast<std::size_t>(cause)];
    }

    void
    recordCommit(CommitStall cause)
    {
        ++commit_[static_cast<std::size_t>(cause)];
    }

    void
    recordWakeupLatency(Cycle lat)
    {
        if (lat < kWakeupBuckets) {
            ++wakeup_[static_cast<std::size_t>(lat)];
        } else {
            ++wakeupOverflow_;  // Rare; the value still feeds the mean.
            wakeupOverflowSum_ += lat;
        }
    }

    /**
     * Record {now, committed, occupancy} every period-th call once
     * enableIntervals(period) was set; costs one decrement otherwise.
     */
    void
    endCycle(Cycle now, std::uint64_t committed,
             const unsigned *occupancy)
    {
        if (intervalPeriod_ == 0)
            return;
        if (--intervalCountdown_ > 0)
            return;
        intervalCountdown_ = intervalPeriod_;
        IntervalSample s;
        s.cycle = now;
        s.committed = committed;
        for (unsigned c = 0; c < numClusters_; ++c)
            s.occupancy[c] = occupancy[c];
        intervals_.push_back(s);
    }

    /**
     * Credit @p cycles skipped cycles that each repeat one quiescent
     * cycle: per cluster the issue cause @p issue[c] with occupancy
     * @p occupancy[c], the rename causes counted in @p rename (which sum
     * to @p cycles) and the commit cause @p commit. The caller stops the
     * skip before the next interval sample (see cyclesToSample).
     */
    void creditQuiescent(Cycle cycles, const IssueStall *issue,
                         const unsigned *occupancy,
                         const Counts<RenameStall> &rename,
                         CommitStall commit);

    /**
     * endCycle calls up to and including the one that records the next
     * interval sample; kNeverCycle while sampling is off.
     */
    Cycle
    cyclesToSample() const
    {
        return intervalPeriod_ != 0 ? intervalCountdown_ : kNeverCycle;
    }

    /** Enable interval sampling every @p period cycles (0 disables). */
    void enableIntervals(Cycle period);
    Cycle intervalPeriod() const { return intervalPeriod_; }
    const std::vector<IntervalSample> &intervals() const
    {
        return intervals_;
    }

    const Counts<IssueStall> &issueStall(unsigned c) const
    {
        return issue_[c];
    }
    const Counts<RenameStall> &renameStall() const { return rename_; }
    const Counts<CommitStall> &commitStall() const { return commit_; }
    const std::array<std::uint64_t, kWakeupBuckets> &wakeupLatency() const
    {
        return wakeup_;
    }
    /** Wake-ups of kWakeupBuckets cycles or more. */
    std::uint64_t wakeupOverflow() const { return wakeupOverflow_; }
    std::uint64_t occupancySum(unsigned c) const { return occupancySum_[c]; }

    /** Zero all measurements, keeping configuration (interval period). */
    void reset();

    /**
     * Append this subsystem's JSON object: stall-cause legends, one
     * {buckets, overflow, samples, mean} object per histogram, occupancy
     * sums and the interval series.
     */
    void dumpJson(JsonWriter &w) const;

    /** Checkpoint the measurements and sampler position (not the period). */
    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    unsigned numClusters_;
    std::array<Counts<IssueStall>, kClusterCap> issue_{};  ///< Per cluster.
    Counts<RenameStall> rename_{};
    Counts<CommitStall> commit_{};
    /// Cycles from operand-ready to issue, per micro-op.
    std::array<std::uint64_t, kWakeupBuckets> wakeup_{};
    std::uint64_t wakeupOverflow_ = 0;
    std::uint64_t wakeupOverflowSum_ = 0;  ///< Sum of the overflowed waits.
    std::array<std::uint64_t, kClusterCap> occupancySum_{};

    Cycle intervalPeriod_ = 0;
    Cycle intervalCountdown_ = 0;
    std::vector<IntervalSample> intervals_;
};

} // namespace wsrs::obs
