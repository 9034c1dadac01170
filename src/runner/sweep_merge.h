/**
 * @file
 * Sweep bookkeeping shared by the in-process SweepRunner and the
 * distributed svc::Coordinator.
 *
 * The two engines hand jobs out differently (a thread pool versus shard
 * leases to worker processes) but must produce the same outcomes, span
 * tree and progress events. SweepMerge owns that common part, so each
 * engine keeps only its scheduling (only SweepRunner journals):
 *
 *  - resume-journal recovery: journaled jobs land in their outcome slots
 *    up front and their events are delivered first, so progress consumers
 *    see every job exactly once;
 *  - one `job` root span per pending job, opened at construction (sweep
 *    submission) and closed when the job's outcome merges;
 *  - accept(): journal record, root-span close, `merged` instant,
 *    completion count and onEvent delivery — once per job, duplicates
 *    refused.
 *
 * Outcomes land at their job index, never in completion order, which is
 * what keeps a sweep's results independent of where and when each job
 * ran.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/runner/sweep_runner.h"

namespace wsrs::runner {

class ResumeJournal;

/** Outcome slots, journal and progress delivery of one sweep run. */
class SweepMerge
{
  public:
    /**
     * Open the journal at @p journal_path (empty = none), replaying it
     * when @p resume is set, deliver the recovered jobs' events, and open
     * the pending jobs' root spans in @p spans (null = untraced).
     */
    SweepMerge(const std::vector<SweepJob> &jobs,
               const std::string &journal_path, bool resume,
               std::function<void(const SweepEvent &)> on_event,
               obs::SpanLog *spans);
    ~SweepMerge();

    SweepMerge(const SweepMerge &) = delete;
    SweepMerge &operator=(const SweepMerge &) = delete;

    /** Jobs still to run (not recovered), in submission order. */
    const std::vector<std::uint64_t> &pending() const { return pending_; }

    /**
     * Merge @p out as job @p index's outcome. Thread-safe; events are
     * serialized and observe completed = 1, 2, ... N.
     * @return false, changing nothing, when @p index is out of range or
     *         already has an outcome.
     */
    bool accept(std::size_t index, SweepOutcome out);

    /** Whether job @p index has an outcome (recovered or accepted). */
    bool has(std::size_t index) const;
    /** Whether every job has an outcome. */
    bool complete() const;

    /** Whether an intact prior journal was replayed. */
    bool resumed() const { return resumed_; }
    /** Jobs recovered from the journal instead of run. */
    std::size_t recoveredCount() const { return recoveredCount_; }

    /** Move the outcomes out, in submission order. */
    std::vector<SweepOutcome> take();

  private:
    /** Deliver job @p index's event; caller holds mu_. */
    void deliver(std::size_t index);

    std::function<void(const SweepEvent &)> onEvent_;
    obs::SpanLog *spans_;
    std::unique_ptr<ResumeJournal> journal_;
    bool resumed_ = false;
    std::size_t recoveredCount_ = 0;
    std::vector<std::uint64_t> pending_;
    std::vector<std::int64_t> spanStartUs_;

    mutable std::mutex mu_;
    std::vector<SweepOutcome> outcomes_; ///< Guarded by mu_.
    std::vector<bool> have_;             ///< Guarded by mu_.
    std::size_t completed_ = 0;          ///< Guarded by mu_.
};

} // namespace wsrs::runner
