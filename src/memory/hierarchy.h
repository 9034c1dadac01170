/**
 * @file
 * Two-level data-memory hierarchy with the paper's Table 3 parameters.
 *
 *   L1 D-cache : 32 KB, 2-cycle latency, 12-cycle miss penalty (to L2),
 *                bandwidth 4 accesses/cycle;
 *   L2 cache   : 512 KB, 12-cycle latency, 80-cycle miss penalty (DRAM),
 *                refill bandwidth 16 B/cycle.
 *
 * probeLatency() returns the total load-to-use latency of an access issued
 * at a given cycle, charging L2/DRAM port occupancy so refill bandwidth is
 * honoured (a 64 B line at 16 B/cycle holds the L2 port for 4 cycles).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/memory/cache.h"
#include "src/memory/dram.h"

namespace wsrs::memory {

/** Timing and geometry parameters of the hierarchy (paper Table 3). */
struct HierarchyParams
{
    CacheParams l1{.sizeBytes = 32 * 1024, .assoc = 4, .lineBytes = 64};
    CacheParams l2{.sizeBytes = 512 * 1024, .assoc = 8, .lineBytes = 64};
    Cycle l1Latency = 2;        ///< Load-use latency on an L1 hit.
    Cycle l1MissPenalty = 12;   ///< Extra cycles for an L1 miss / L2 hit.
    Cycle l2MissPenalty = 80;   ///< Extra cycles for an L2 miss (Constant).
    unsigned l2BytesPerCycle = 16; ///< L2 refill bandwidth.
    /** Maximum overlapped L1 misses (0 = unlimited, the paper-era
     *  idealization this repo defaults to). */
    unsigned mshrs = 0;
    /** Optional next-N-line stride prefetcher into L2 on L1 misses
     *  (0 = off; extension, not part of the paper's machine). */
    unsigned prefetchDepth = 0;
    /** Backend serving L2 misses: the paper's fixed constant (default,
     *  keeps every golden fingerprint) or the event-driven DRAM model. */
    MemModel model = MemModel::Constant;
    /** DRAM geometry/timing; consulted only when model == Dram. */
    DramParams dram{};
};

/** Result of a timed access. */
struct TimedAccess
{
    Cycle latency = 0;   ///< Total cycles until the value is usable.
    bool l1Hit = false;
    bool l2Hit = false;  ///< Meaningful when !l1Hit.
};

/** Two-level hierarchy with bandwidth-aware timing. */
class MemoryHierarchy : public ckpt::Snapshotter
{
  public:
    /**
     * @param params hierarchy description.
     * @param stats group receiving the hit/miss counters.
     */
    MemoryHierarchy(const HierarchyParams &params, StatGroup &stats);

    /**
     * Perform a timed access.
     *
     * @param addr byte address.
     * @param is_store stores allocate and dirty lines but their latency is
     *        not on the critical path (the LSQ retires them at commit).
     * @param now issue cycle, used for L2 port occupancy.
     */
    TimedAccess access(Addr addr, bool is_store, Cycle now);

    /** Invalidate both levels and reset port state (not the counters). */
    void flush();

    /**
     * Zero the transient timing state (L2 port occupancy, in-flight
     * misses) while keeping tags, replacement state and counters. Used
     * when warmed state is transplanted to a core whose clock starts at
     * zero (warm-up snapshots): stamps from the warming pass would
     * otherwise sit in the restored core's future and stall every early
     * refill behind a phantom busy port.
     */
    void rebaseTiming();

    /**
     * Start a measurement window at core cycle @p now: forwards to the
     * DRAM backend's stall-attribution epoch. No-op (and no behaviour
     * change) under the Constant model. Pair with Core::resetStats.
     */
    void resetMeasurement(Cycle now);

    const HierarchyParams &params() const { return params_; }

    /** The DRAM backend, or nullptr under the Constant model. */
    const DramController *dram() const { return dram_.get(); }

    std::uint64_t l1Misses() const { return l1Misses_.value(); }
    std::uint64_t mshrStalls() const { return mshrStalls_.value(); }
    std::uint64_t prefetches() const { return prefetches_.value(); }
    std::uint64_t l2Misses() const { return l2Misses_.value(); }
    std::uint64_t accesses() const { return accesses_.value(); }

    /** Checkpoint both cache levels, port/MSHR state and the counters. */
    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    HierarchyParams params_;
    Cache l1_;
    Cache l2_;
    /** Event-driven backend; constructed (and its counters registered)
     *  only when params.model == Dram, so the Constant model's stats
     *  JSON stays byte-identical to the pre-DRAM seed. */
    std::unique_ptr<DramController> dram_;
    Cycle l2PortFree_ = 0;   ///< Next cycle the L2 refill port is free.
    /** Completion times of in-flight misses (MSHR occupancy model). */
    std::vector<Cycle> missDone_;
    std::size_t missDonePos_ = 0;

    Counter accesses_;    ///< Data-memory accesses.
    Counter l1Misses_;
    Counter l2Misses_;
    Counter writebacks_;  ///< Dirty-line writebacks to L2.
    Counter mshrStalls_;  ///< Misses delayed by the MSHR limit.
    Counter prefetches_;  ///< Prefetched lines into L2.
};

} // namespace wsrs::memory
