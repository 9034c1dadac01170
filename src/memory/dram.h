/**
 * @file
 * Banked DRAM controller behind the memory hierarchy.
 *
 * An L2 miss becomes a request to one of `banks` DRAM banks (line address
 * interleaved at row granularity). Each bank keeps an open row: a request
 * to the open row pays only CAS, a request to a closed bank pays
 * activate + CAS, and a row conflict pays precharge + activate + CAS
 * (first-ready scheduling: open-row hits bypass preparation entirely,
 * everything else is served in arrival order). All completed lines then
 * serialize over one shared data bus at `burstCycles` per line. A bounded
 * in-flight window (`windowDepth`) backpressures the core: when it is
 * full, a new demand miss waits for the oldest outstanding request to
 * complete, and prefetches are dropped.
 *
 * Every service interval is charged to exactly one obs::MemQueueStall
 * bucket on a first-cause basis (disjoint segments clipped against a
 * single high-water marker), so over any measurement window
 * sum(buckets) + idle == elapsed core cycles — the invariant
 * scripts/check_stats_schema.py enforces on the exported `memory` object.
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/obs/pipeline_stats.h"

namespace wsrs::memory {

/** Which backend serves L2 misses. */
enum class MemModel : std::uint8_t {
    Constant = 0, ///< Fixed l2MissPenalty (paper Table 3; the default).
    Dram,         ///< Event-driven banked DRAM (DramParams).
};

/** Geometry and timing of the DRAM backend, in core cycles. */
struct DramParams
{
    unsigned banks = 8;        ///< Independent banks (row interleaved).
    unsigned rowBytes = 2048;  ///< Row-buffer size.
    Cycle tRp = 28;            ///< Precharge (close a conflicting row).
    Cycle tRcd = 28;           ///< Activate (open a row).
    Cycle tCas = 28;           ///< Column access of an open row.
    Cycle burstCycles = 4;     ///< Line transfer on the shared data bus.
    unsigned windowDepth = 16; ///< Bounded in-flight request window.
    bool closedPage = false;   ///< Auto-precharge: every access activates.
};

/** Banked open-row DRAM with a shared bus and a bounded window. */
class DramController : public ckpt::Snapshotter
{
  public:
    static constexpr std::size_t kNumStallBuckets =
        static_cast<std::size_t>(obs::MemQueueStall::kCount);

    DramController(const DramParams &params, StatGroup &stats);

    /**
     * Serve a demand miss arriving at the controller at cycle @p at
     * (already past the L1/L2 lookup path). @p now is the core clock of
     * the triggering access (<= @p at); it retires completed events and
     * folds finished attribution segments. Returns done - at, the extra
     * latency the miss observes.
     */
    Cycle request(Addr addr, bool is_store, Cycle at, Cycle now);

    /**
     * Serve a prefetch: occupies bank/bus timing like a demand request
     * but charges nothing to the triggering access or the attribution
     * buckets, and is dropped (returns false) when the window is full.
     */
    bool tryPrefetch(Addr addr, Cycle at, Cycle now);

    /**
     * Zero all absolute-cycle state (bank readiness, bus, pending events
     * and attribution segments) while keeping the open-row registers:
     * warmed rows are transplantable state, stamps from the warming pass
     * are not (they would sit in the restored core's future).
     */
    void rebaseTiming();

    /** rebaseTiming plus closing every row (hierarchy flush). */
    void resetState();

    /**
     * Start a measurement window at @p epoch: zero the stall buckets and
     * clip in-flight attribution segments so only cycles >= epoch are
     * ever charged. Pair with Core::resetStats.
     */
    void resetMeasurement(Cycle epoch);

    /**
     * Stall-cycle attribution over [epoch, end): one entry per
     * obs::MemQueueStall bucket, Idle derived as the unclaimed remainder,
     * so the entries sum to end - epoch exactly.
     */
    std::array<std::uint64_t, kNumStallBuckets> stallCycles(Cycle end) const;

    /**
     * Emit the dram-model `memory` stats object of wsrs-stats-v1:
     * geometry, timing, the hierarchy counter group @p counters and the
     * stall attribution up to core cycle @p end.
     */
    void dumpJson(JsonWriter &w, const StatGroup &counters, Cycle end) const;

    const DramParams &params() const { return params_; }

    std::uint64_t requests() const { return requests_.value(); }
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowEmpties() const { return rowEmpties_.value(); }
    std::uint64_t rowConflicts() const { return rowConflicts_.value(); }
    std::uint64_t queueFullWaits() const { return queueFullWaits_.value(); }
    std::uint64_t prefetchDrops() const { return prefetchDrops_.value(); }
    /** Requests scheduled but not yet past their completion cycle. */
    std::size_t inFlight() const { return completions_.size(); }

    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

    struct Bank
    {
        Cycle readyAt = 0;           ///< Bank free for the next command.
        std::uint64_t openRow = kNoRow;
    };

    /** One charged-but-unfolded attribution segment, [from, to). */
    struct AttrSeg
    {
        Cycle from = 0;
        Cycle to = 0;
        std::uint8_t bucket = 0;
    };

    /** Bank/bus service common to demand requests and prefetches. */
    Cycle serveLine(Addr addr, Cycle at, bool attribute);
    void charge(obs::MemQueueStall bucket, Cycle from, Cycle to);
    void drainTo(Cycle now);

    DramParams params_;
    std::vector<Bank> banks_;
    /**
     * Completion cycles of the in-flight requests, oldest first. Every
     * line leaves over the one data bus, so each completion is the new
     * busFreeAt_: the list never decreases and a FIFO is its queue.
     */
    std::deque<Cycle> completions_;
    Cycle busFreeAt_ = 0;

    // ---- first-cause stall attribution ----
    Cycle epoch_ = 0;     ///< Measurement window start.
    Cycle attrUntil_ = 0; ///< High-water mark of charged segments.
    /** Folded charges (cycles before the last drain point), Idle unused. */
    std::array<std::uint64_t, kNumStallBuckets> stall_{};
    /** Disjoint, time-ordered segments not yet behind the drain point. */
    std::deque<AttrSeg> pending_;

    Counter requests_;       ///< Demand requests served.
    Counter reads_;
    Counter writes_;
    Counter rowHits_;        ///< Accesses to the open row.
    Counter rowEmpties_;     ///< Accesses opening a closed bank.
    Counter rowConflicts_;   ///< Accesses displacing another open row.
    Counter queueFullWaits_; ///< Demand requests delayed by a full window.
    Counter prefetchIssued_; ///< Prefetch requests accepted.
    Counter prefetchDrops_;  ///< Prefetches dropped on a full window.
};

} // namespace wsrs::memory
