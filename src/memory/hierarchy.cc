#include "hierarchy.h"

#include <algorithm>

namespace wsrs::memory {

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params,
                                 StatGroup &stats)
    : params_(params), l1_(params.l1), l2_(params.l2),
      accesses_(stats, "mem.accesses"),
      l1Misses_(stats, "mem.l1_misses"),
      l2Misses_(stats, "mem.l2_misses"),
      writebacks_(stats, "mem.writebacks"),
      mshrStalls_(stats, "mem.mshr_stalls"),
      prefetches_(stats, "mem.prefetches")
{
    if (params.mshrs > 0)
        missDone_.assign(params.mshrs, 0);
    if (params.model == MemModel::Dram)
        dram_ = std::make_unique<DramController>(params.dram, stats);
}

TimedAccess
MemoryHierarchy::access(Addr addr, bool is_store, Cycle now)
{
    ++accesses_;
    TimedAccess out;
    out.latency = params_.l1Latency;

    const AccessOutcome l1 = l1_.access(addr, is_store);
    out.l1Hit = l1.hit;
    if (l1.hit)
        return out;

    ++l1Misses_;
    if (l1.writebackVictim)
        ++writebacks_;

    // MSHR limit: a new miss waits for the oldest outstanding one when
    // all miss registers are busy (0 = unlimited, default).
    Cycle mshr_wait = 0;
    if (params_.mshrs > 0) {
        const Cycle oldest = missDone_[missDonePos_];
        if (oldest > now) {
            mshr_wait = oldest - now;
            ++mshrStalls_;
        }
    }

    // L2 refill port occupancy: one line at l2BytesPerCycle.
    const Cycle refill_cycles = std::max<Cycle>(
        1, params_.l1.lineBytes / std::max(1u, params_.l2BytesPerCycle));
    const Cycle start = std::max(now + mshr_wait, l2PortFree_);
    const Cycle queue_wait = start - now;
    l2PortFree_ = start + refill_cycles;

    out.latency += params_.l1MissPenalty + queue_wait;

    const AccessOutcome l2 = l2_.access(addr, is_store);
    out.l2Hit = l2.hit;
    if (!l2.hit) {
        ++l2Misses_;
        if (dram_)
            out.latency += dram_->request(addr, is_store,
                                          start + params_.l1MissPenalty,
                                          now);
        else
            out.latency += params_.l2MissPenalty;
    }

    if (params_.mshrs > 0) {
        missDone_[missDonePos_] = now + out.latency;
        missDonePos_ = (missDonePos_ + 1) % missDone_.size();
    }

    // Optional next-line stride prefetch into L2 (extension; default off).
    // Prefetches never charge latency to the triggering access: they only
    // touch L2 tags and, under the DRAM model, occupy bank/bus timing as
    // droppable background traffic.
    for (unsigned i = 1; i <= params_.prefetchDepth; ++i) {
        const Addr next = addr + Addr{i} * params_.l1.lineBytes;
        // Clamp at the top of the address space: Addr arithmetic wraps,
        // and a wrapped "successor" would prefetch an unrelated low line.
        if (next < addr)
            break;
        if (!l2_.probe(next)) {
            l2_.access(next, false);
            ++prefetches_;
            if (dram_)
                dram_->tryPrefetch(next, start + params_.l1MissPenalty,
                                   now);
        }
    }
    return out;
}

template <typename Self, typename Io>
void
MemoryHierarchy::transfer(Self &self, Io &io)
{
    ckpt::part(io, self.l1_);
    ckpt::part(io, self.l2_);
    io.u64(self.l2PortFree_);
    ckpt::vecExact(io, self.missDone_, "MSHR miss slots");
    io.u64(self.missDonePos_);
    ckpt::check(io,
                self.missDone_.empty() ||
                    self.missDonePos_ < self.missDone_.size(),
                "MSHR cursor out of range");
    ckpt::counter(io, self.accesses_);
    ckpt::counter(io, self.l1Misses_);
    ckpt::counter(io, self.l2Misses_);
    ckpt::counter(io, self.writebacks_);
    ckpt::counter(io, self.mshrStalls_);
    ckpt::counter(io, self.prefetches_);
    if (self.dram_)
        ckpt::part(io, *self.dram_);
}

void MemoryHierarchy::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void MemoryHierarchy::restore(ckpt::Reader &r) { transfer(*this, r); }

void
MemoryHierarchy::flush()
{
    l1_.flush();
    l2_.flush();
    l2PortFree_ = 0;
    for (auto &c : missDone_)
        c = 0;
    missDonePos_ = 0;
    if (dram_)
        dram_->resetState();
}

void
MemoryHierarchy::rebaseTiming()
{
    // Every field keyed by absolute cycles must rebase together: the L2
    // refill port, the in-flight MSHR completion times (a saturated MSHR
    // file from the warming pass would otherwise stall every early miss
    // of the restored core behind phantom outstanding refills) and the
    // DRAM backend's bank/bus/pending-event state.
    l2PortFree_ = 0;
    for (auto &c : missDone_)
        c = 0;
    missDonePos_ = 0;
    if (dram_)
        dram_->rebaseTiming();
}

void
MemoryHierarchy::resetMeasurement(Cycle now)
{
    if (dram_)
        dram_->resetMeasurement(now);
}

} // namespace wsrs::memory
