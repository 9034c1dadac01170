#include "sweep_merge.h"

#include "src/obs/span_log.h"
#include "src/runner/resume_journal.h"

namespace wsrs::runner {

SweepMerge::SweepMerge(const std::vector<SweepJob> &jobs,
                       const std::string &journal_path, bool resume,
                       std::function<void(const SweepEvent &)> on_event,
                       obs::SpanLog *spans)
    : onEvent_(std::move(on_event)), spans_(spans),
      spanStartUs_(jobs.size(), 0), outcomes_(jobs.size()),
      have_(jobs.size(), false)
{
    if (!journal_path.empty()) {
        journal_ = std::make_unique<ResumeJournal>(
            journal_path, sweepKeyHash(jobs), jobs.size(), resume);
        resumed_ = journal_->resumed();
        recoveredCount_ = journal_->recoveredCount();
    }
    // Recovered jobs complete "instantly": deliver their events first so
    // progress consumers see every job exactly once, in a sane order.
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (journal_ && journal_->recoveredMask()[i]) {
            outcomes_[i] = journal_->recovered()[i];
            have_[i] = true;
            deliver(i);
        } else {
            pending_.push_back(i);
        }
    }
    if (spans_) {
        // Root span per pending job: enqueued at sweep submission, closed
        // when its outcome merges. Warm-up/simulate (and, distributed,
        // lease attempt) children nest inside it.
        const std::int64_t now = obs::monotonicMicros();
        for (const std::uint64_t i : pending_) {
            spanStartUs_[i] = now;
            spans_->nameJob(i, jobs[i].profile.name);
        }
    }
}

SweepMerge::~SweepMerge() = default;

void
SweepMerge::deliver(std::size_t index)
{
    // Called under mu_, not after it: events must stay serialized, with
    // completed counting 1, 2, ... N in delivery order.
    ++completed_;
    if (!onEvent_)
        return;
    SweepEvent ev;
    ev.index = index;
    ev.completed = completed_;
    ev.total = outcomes_.size();
    ev.outcome = &outcomes_[index];
    onEvent_(ev);
}

bool
SweepMerge::accept(std::size_t index, SweepOutcome out)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= outcomes_.size())
        return false;
    if (have_[index]) {
        if (spans_)
            spans_->instant("duplicate-dropped", index, 0, 0,
                            obs::monotonicMicros());
        return false;
    }
    const SweepOutcome &o = outcomes_[index] = std::move(out);
    have_[index] = true;
    if (journal_)
        journal_->record(index, o);
    if (spans_) {
        const std::int64_t now = obs::monotonicMicros();
        if (o.ok)
            spans_->nameJob(index,
                            o.results.benchmark + "@" + o.results.machine);
        spans_->complete("job", index, 0, 0, spanStartUs_[index],
                         now - spanStartUs_[index], o.ok ? "" : "failed");
        spans_->instant("merged", index, 0, 0, now);
    }
    deliver(index);
    return true;
}

bool
SweepMerge::has(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return have_[index];
}

bool
SweepMerge::complete() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_ == outcomes_.size();
}

std::vector<SweepOutcome>
SweepMerge::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(outcomes_);
}

} // namespace wsrs::runner
