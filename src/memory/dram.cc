#include "dram.h"

#include <algorithm>

#include "src/common/log.h"

namespace wsrs::memory {

using obs::MemQueueStall;

DramController::DramController(const DramParams &params, StatGroup &stats)
    : params_(params),
      requests_(stats, "dram.requests"),
      reads_(stats, "dram.reads"),
      writes_(stats, "dram.writes"),
      rowHits_(stats, "dram.row_hits"),
      rowEmpties_(stats, "dram.row_empties"),
      rowConflicts_(stats, "dram.row_conflicts"),
      queueFullWaits_(stats, "dram.queue_full_waits"),
      prefetchIssued_(stats, "dram.prefetch_issued"),
      prefetchDrops_(stats, "dram.prefetch_drops")
{
    WSRS_ASSERT(params.banks > 0 && params.rowBytes > 0);
    WSRS_ASSERT(params.windowDepth > 0);
    banks_.assign(params.banks, Bank{});
}

void
DramController::charge(MemQueueStall bucket, Cycle from, Cycle to)
{
    // First-cause attribution: every cycle belongs to the earliest charge
    // that claimed it, so later (overlapping) service segments are clipped
    // against the single high-water marker. Cycles before the measurement
    // epoch are never charged.
    from = std::max({from, attrUntil_, epoch_});
    if (from >= to)
        return;
    pending_.push_back({from, to, static_cast<std::uint8_t>(bucket)});
    attrUntil_ = to;
}

void
DramController::drainTo(Cycle now)
{
    // Retire completed in-flight requests so the window reflects
    // occupancy at the core clock.
    while (!completions_.empty() && completions_.front() <= now)
        completions_.pop_front();
    // Fold attribution segments that are entirely in the past; the core
    // clock never reaches `now` again, so they are final. Segments are
    // only folded up to `now` — the still-future tail stays pending so a
    // dump at an earlier end-of-measure cycle can clip it exactly.
    while (!pending_.empty() && pending_.front().from < now) {
        AttrSeg &s = pending_.front();
        const Cycle upto = std::min(s.to, now);
        stall_[s.bucket] += upto - s.from;
        if (upto < s.to) {
            s.from = upto;
            break;
        }
        pending_.pop_front();
    }
}

Cycle
DramController::serveLine(Addr addr, Cycle at, bool attribute)
{
    const std::uint64_t rowAddr = addr / params_.rowBytes;
    const std::uint64_t row = rowAddr / banks_.size();
    Bank &bank = banks_[rowAddr % banks_.size()];

    const Cycle bankStart = std::max(at, bank.readyAt);
    Cycle prep;
    if (!params_.closedPage && bank.openRow == row) {
        prep = params_.tCas;
        ++rowHits_;
    } else if (bank.openRow == kNoRow || params_.closedPage) {
        prep = params_.tRcd + params_.tCas;
        ++rowEmpties_;
    } else {
        prep = params_.tRp + params_.tRcd + params_.tCas;
        ++rowConflicts_;
    }
    const Cycle casDone = bankStart + prep;
    // One shared data bus: each burst starts no earlier than the last
    // one ended, so completions never reorder (completions_ is a FIFO).
    const Cycle busStart = std::max(casDone, busFreeAt_);
    const Cycle done = busStart + params_.burstCycles;

    bank.readyAt = casDone;
    bank.openRow = params_.closedPage ? kNoRow : row;
    busFreeAt_ = done;

    if (attribute) {
        charge(MemQueueStall::BankBusy, at, bankStart);
        charge(MemQueueStall::BankPrep, bankStart, casDone);
        charge(MemQueueStall::DataBurst, casDone, done);
    }
    return done;
}

Cycle
DramController::request(Addr addr, bool is_store, Cycle at, Cycle now)
{
    drainTo(now);
    ++requests_;
    ++(is_store ? writes_ : reads_);

    // Bounded in-flight window: a full window delays admission until
    // enough outstanding requests (oldest first) have completed.
    Cycle admit = at;
    if (completions_.size() >= params_.windowDepth) {
        ++queueFullWaits_;
        while (completions_.size() >= params_.windowDepth) {
            admit = std::max(admit, completions_.front());
            completions_.pop_front();
        }
        charge(MemQueueStall::QueueFull, at, admit);
    }

    const Cycle done = serveLine(addr, admit, /*attribute=*/true);
    completions_.push_back(done);
    return done - at;
}

bool
DramController::tryPrefetch(Addr addr, Cycle at, Cycle now)
{
    drainTo(now);
    if (completions_.size() >= params_.windowDepth) {
        ++prefetchDrops_;
        return false;
    }
    // Prefetches occupy the bank and bus (later demand requests that wait
    // behind them are charged BankBusy/DataBurst as first causes) but
    // charge nothing themselves: their service must not bill the
    // triggering access, and unclaimed cycles fall to Idle.
    completions_.push_back(serveLine(addr, at, /*attribute=*/false));
    ++prefetchIssued_;
    return true;
}

void
DramController::rebaseTiming()
{
    for (Bank &b : banks_)
        b.readyAt = 0;
    busFreeAt_ = 0;
    completions_.clear();
    pending_.clear();
    attrUntil_ = 0;
    epoch_ = 0;
    stall_.fill(0);
}

void
DramController::resetState()
{
    rebaseTiming();
    for (Bank &b : banks_)
        b.openRow = kNoRow;
}

void
DramController::resetMeasurement(Cycle epoch)
{
    epoch_ = epoch;
    attrUntil_ = std::max(attrUntil_, epoch);
    stall_.fill(0);
    // Segments charged by the warm-up phase may spill into the
    // measurement window (a refill still in flight at the boundary);
    // keep the spill, drop everything fully before the epoch.
    while (!pending_.empty() && pending_.front().to <= epoch)
        pending_.pop_front();
    if (!pending_.empty() && pending_.front().from < epoch)
        pending_.front().from = epoch;
}

std::array<std::uint64_t, DramController::kNumStallBuckets>
DramController::stallCycles(Cycle end) const
{
    std::array<std::uint64_t, kNumStallBuckets> out = stall_;
    // Fold the pending tail, clipped to the measurement window: charges
    // for in-flight service past `end` belong to the next window.
    for (const AttrSeg &s : pending_) {
        const Cycle from = std::max<Cycle>(s.from, epoch_);
        const Cycle to = std::min<Cycle>(s.to, end);
        if (from < to)
            out[s.bucket] += to - from;
    }
    const Cycle total = end > epoch_ ? end - epoch_ : 0;
    std::uint64_t claimed = 0;
    for (std::size_t b = 0; b < kNumStallBuckets; ++b)
        if (b != static_cast<std::size_t>(MemQueueStall::Idle))
            claimed += out[b];
    WSRS_ASSERT(claimed <= total);
    out[static_cast<std::size_t>(MemQueueStall::Idle)] = total - claimed;
    return out;
}

void
DramController::dumpJson(JsonWriter &w, const StatGroup &counters,
                         Cycle end) const
{
    w.beginObject()
        .field("model", "dram")
        .field("banks", params_.banks).field("row_bytes", params_.rowBytes)
        .field("window_depth", params_.windowDepth)
        .field("page_policy", params_.closedPage ? "closed" : "open")
        .key("timing").beginObject()
        .field("t_rp", params_.tRp).field("t_rcd", params_.tRcd)
        .field("t_cas", params_.tCas)
        .field("burst_cycles", params_.burstCycles)
        .endObject()
        .key("counters");
    counters.dumpJson(w);
    const auto buckets = stallCycles(end);
    w.key("stall").beginObject()
        .field("cycles", end > epoch_ ? end - epoch_ : 0)
        .key("causes").beginObject();
    for (std::size_t b = 0; b < kNumStallBuckets; ++b)
        w.field(obs::memQueueStallName(static_cast<MemQueueStall>(b)),
                buckets[b]);
    w.endObject().endObject().endObject();
}

template <typename Self, typename Io>
void
DramController::transfer(Self &self, Io &io)
{
    ckpt::expect(io, self.banks_.size(), 8, "DRAM bank count mismatch");
    for (auto &b : self.banks_) {
        io.u64(b.readyAt);
        io.u64(b.openRow);
    }
    io.u64(self.busFreeAt_);
    // The window bounds the list, and no completion precedes the one
    // before it or follows the bus's last burst.
    std::uint64_t n = self.completions_.size();
    io.u64(n);
    ckpt::check(io, n <= self.params_.windowDepth,
                "DRAM completion count exceeds the window depth");
    if constexpr (Io::kLoading)
        self.completions_.assign(n, 0);
    Cycle prev = 0;
    for (auto &c : self.completions_) {
        io.u64(c);
        ckpt::check(io, c >= prev, "DRAM completions decrease");
        ckpt::check(io, c <= self.busFreeAt_,
                    "DRAM completion after the bus's last burst");
        prev = c;
    }
    io.u64(self.epoch_);
    io.u64(self.attrUntil_);
    for (auto &s : self.stall_)
        io.u64(s);
    const std::uint64_t npend =
        ckpt::count(io, self.pending_.size(), 24, "DRAM stall segment");
    if constexpr (Io::kLoading)
        self.pending_.assign(npend, AttrSeg{});
    for (auto &s : self.pending_) {
        io.u64(s.from);
        io.u64(s.to);
        io.u64(s.bucket);
        ckpt::check(io, s.bucket < kNumStallBuckets,
                    "DRAM stall segment bucket out of range");
    }
    ckpt::counter(io, self.requests_);
    ckpt::counter(io, self.reads_);
    ckpt::counter(io, self.writes_);
    ckpt::counter(io, self.rowHits_);
    ckpt::counter(io, self.rowEmpties_);
    ckpt::counter(io, self.rowConflicts_);
    ckpt::counter(io, self.queueFullWaits_);
    ckpt::counter(io, self.prefetchIssued_);
    ckpt::counter(io, self.prefetchDrops_);
}

void DramController::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void DramController::restore(ckpt::Reader &r) { transfer(*this, r); }

} // namespace wsrs::memory
