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
 * The attribution lands in `Histogram` stats (one bucket per cause), so
 * for every cluster: sum(buckets) + overflow == cycles — an invariant
 * scripts/check_stats_schema.py enforces on exported JSON. Optionally a
 * periodic interval sampler records {cycle, committed, per-cluster
 * occupancy} every N cycles for time-series plots.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/stats.h"
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
 * The core-side container: stall-cause histograms, wake-up latency,
 * occupancy accounting and the interval sampler, all registered in the
 * owning StatGroup under stable names (issue_stall_c<k>, rename_stall,
 * commit_stall, wakeup_latency).
 */
class PipelineStats : public ckpt::Snapshotter
{
  public:
    /** Wake-up latency histogram range; longer waits overflow. */
    static constexpr std::size_t kWakeupBuckets = 32;

    PipelineStats(StatGroup &group, unsigned num_clusters);

    unsigned numClusters() const { return numClusters_; }

    // The record* hooks run several times per simulated cycle, so they
    // only bump flat in-object counters; flush() folds the batch into the
    // Histogram stats on the (cold) read side. Histogram contents are
    // additive integer counts — and the running sums stay integer-valued,
    // hence exact in double — so batched application is bit-identical to
    // per-cycle sample() calls.

    void
    recordIssue(ClusterId c, IssueStall cause, unsigned occupancy)
    {
        ++pendingIssue_[c][static_cast<std::size_t>(cause)];
        pendingOccupancy_[c] += occupancy;
    }

    void
    recordRename(RenameStall cause)
    {
        ++pendingRename_[static_cast<std::size_t>(cause)];
    }

    void
    recordCommit(CommitStall cause)
    {
        ++pendingCommit_[static_cast<std::size_t>(cause)];
    }

    void
    recordWakeupLatency(Cycle lat)
    {
        if (lat < kWakeupBuckets)
            ++pendingWakeup_[static_cast<std::size_t>(lat)];
        else
            wakeupLatency_->sample(lat);  // Rare; value feeds the mean.
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

    /** Enable interval sampling every @p period cycles (0 disables). */
    void enableIntervals(Cycle period);
    Cycle intervalPeriod() const { return intervalPeriod_; }
    const std::vector<IntervalSample> &intervals() const
    {
        return intervals_;
    }

    const Histogram &
    issueStall(unsigned c) const
    {
        flush();
        return *issueStall_[c];
    }
    const Histogram &
    renameStall() const
    {
        flush();
        return *renameStall_;
    }
    const Histogram &
    commitStall() const
    {
        flush();
        return *commitStall_;
    }
    const Histogram &
    wakeupLatency() const
    {
        flush();
        return *wakeupLatency_;
    }
    std::uint64_t
    occupancySum(unsigned c) const
    {
        flush();
        return occupancySum_[c];
    }

    /** Zero all measurements, keeping configuration (interval period). */
    void reset();

    /**
     * Append this subsystem's JSON object: stall-cause legends, the
     * histogram stats, occupancy sums and the interval series.
     */
    void dumpJson(JsonWriter &w) const;

    /** Checkpoint the measurements and sampler position (not the period). */
    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    /** Fold the batched attribution counters into the histograms. */
    void flush() const;

    /** Discard any batched attribution not yet flushed. */
    void
    discardPending()
    {
        for (auto &p : pendingIssue_)
            p.fill(0);
        pendingOccupancy_.fill(0);
        pendingRename_.fill(0);
        pendingCommit_.fill(0);
        pendingWakeup_.fill(0);
    }

    unsigned numClusters_;
    std::vector<std::unique_ptr<Histogram>> issueStall_;  ///< Per cluster.
    std::unique_ptr<Histogram> renameStall_;
    std::unique_ptr<Histogram> commitStall_;
    /// Cycles from operand-ready to issue, per micro-op.
    std::unique_ptr<Histogram> wakeupLatency_;
    mutable std::array<std::uint64_t, kClusterCap> occupancySum_{};

    // Batched record* counts awaiting flush() (mutable: flushing from the
    // const read-side accessors is not an observable mutation).
    mutable std::array<std::array<std::uint64_t,
                                  static_cast<std::size_t>(
                                      IssueStall::kCount)>,
                       kClusterCap>
        pendingIssue_{};
    mutable std::array<std::uint64_t, kClusterCap> pendingOccupancy_{};
    mutable std::array<std::uint64_t,
                       static_cast<std::size_t>(RenameStall::kCount)>
        pendingRename_{};
    mutable std::array<std::uint64_t,
                       static_cast<std::size_t>(CommitStall::kCount)>
        pendingCommit_{};
    mutable std::array<std::uint64_t, kWakeupBuckets> pendingWakeup_{};

    Cycle intervalPeriod_ = 0;
    Cycle intervalCountdown_ = 0;
    std::vector<IntervalSample> intervals_;
};

} // namespace wsrs::obs
