/**
 * @file
 * Minimal event queue for the event-driven memory backend: a binary
 * min-heap of events keyed by (cycle, sequence). Same-cycle events pop
 * in schedule order — the FIFO tie-break that makes the DRAM
 * controller's completion stream deterministic and checkpoint-stable.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/ckpt/io.h"
#include "src/common/types.h"

namespace wsrs::memory {

/** One scheduled completion. */
struct MemEvent
{
    Cycle at = 0;            ///< Absolute cycle the event fires.
    std::uint64_t seq = 0;   ///< Schedule order; breaks same-cycle ties.
    std::uint32_t bank = 0;  ///< Owning DRAM bank (payload).
};

/** Min-heap of MemEvents ordered by (at, seq). */
class EventQueue
{
  public:
    void
    schedule(Cycle at, std::uint32_t bank)
    {
        heap_.push_back({at, nextSeq_++, bank});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Earliest event; undefined when empty. */
    const MemEvent &top() const { return heap_.front(); }

    void
    pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
    }

    /** Drop every event, restarting the tie-break sequence. */
    void
    clear()
    {
        heap_.clear();
        nextSeq_ = 0;
    }

    /**
     * Checkpoint the raw heap array. The layout is a deterministic
     * function of the schedule/pop history, so writing it verbatim and
     * reading it back reproduces the queue bit-exactly.
     */
    void snapshot(ckpt::Writer &w) const { transfer(*this, w); }
    void restore(ckpt::Reader &r) { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        io.u64(self.nextSeq_);
        const std::uint64_t n =
            ckpt::count(io, self.heap_.size(), 24, "memory event");
        if constexpr (Io::kLoading)
            self.heap_.assign(n, MemEvent{});
        for (auto &e : self.heap_) {
            io.u64(e.at);
            io.u64(e.seq);
            io.u64(e.bank);
        }
        ckpt::check(io,
                    std::is_heap(self.heap_.begin(), self.heap_.end(), later),
                    "memory event queue is not a heap");
    }

    /** True when @p a fires after @p b (max-heap comparator inversion). */
    static bool
    later(const MemEvent &a, const MemEvent &b)
    {
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }

    std::vector<MemEvent> heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace wsrs::memory
