/**
 * @file
 * Load/store queue with in-order address computation.
 *
 * The paper's memory model (section 5.2): "Load/store addresses were
 * computed in order, loads bypassing stores whenever no conflict were
 * encountered". Accordingly:
 *
 *  - *address computation* proceeds strictly in program order on a
 *    dedicated in-order path (Core::agenStage), one entry per cycle slot,
 *    as soon as the entry's address operand is available;
 *  - *memory access* (issue on a cluster's load/store unit) is out of
 *    order: once a load's address is computed, every older store's address
 *    is also known (in-order computation), so conflicts are detected
 *    exactly — a conflicting load forwards the store's value (stalling
 *    until the store's data has been captured), a conflict-free load
 *    bypasses all older stores (stores update memory at commit).
 *
 * Entries live in a fixed-capacity power-of-two ring indexed by the
 * monotonically increasing mem-op ordinal, so allocation, lookup and the
 * forwarding scan are mask-and-index with no allocator traffic. Stores
 * are also chained by address hash into a fixed array of chain heads
 * sized from the capacity, so the forwarding index is bounded by the
 * in-flight window rather than by how many addresses a run stores to.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/common/types.h"

namespace wsrs::core {

/** Result of a forwarding probe. */
struct ForwardProbe
{
    bool conflict = false;    ///< An older in-flight store aliases.
    bool dataReady = false;   ///< That store's data has been captured.
    std::uint64_t value = 0;  ///< Forwardable value when dataReady.
};

/** Program-ordered queue of in-flight memory micro-ops. */
class LoadStoreQueue : public ckpt::Snapshotter
{
  public:
    explicit LoadStoreQueue(unsigned capacity) : capacity_(capacity)
    {
        std::size_t ring = 1;
        while (ring < capacity_)
            ring <<= 1;
        entries_.resize(ring);
        mask_ = ring - 1;
        // The smallest power of two >= 2 x capacity: at most half the
        // buckets hold a live store, so chains stay short.
        heads_.assign(2 * ring, 0);
        headMask_ = heads_.size() - 1;
    }

    bool full() const { return size_ >= capacity_; }
    std::size_t size() const { return size_; }

    /**
     * Allocate an entry at rename time.
     * @param rob_num the owning instruction's ROB number (used by the
     *        in-order address-generation stage).
     * @return the mem-op ordinal identifying the entry.
     */
    std::uint64_t
    allocate(bool is_store, Addr addr, std::uint64_t rob_num)
    {
        WSRS_ASSERT(!full());
        const std::uint64_t ordinal = frontOrdinal_ + size_;
        Entry &e = entries_[ordinal & mask_];
        e = Entry{addr, 0, rob_num, 0, is_store, false};
        if (is_store)
            linkStore(e, ordinal);
        ++size_;
        return ordinal;
    }

    /**
     * ROB number of the oldest entry whose address is not yet computed.
     * @retval false when every entry's address is known (or queue empty).
     */
    bool
    nextAgen(std::uint64_t &rob_num) const
    {
        if (agenCount_ >= size_)
            return false;
        rob_num = entries_[(frontOrdinal_ + agenCount_) & mask_].robNum;
        return true;
    }

    /** Mark the oldest pending entry's address computed. */
    void
    markAddrComputed(std::uint64_t ordinal)
    {
        WSRS_ASSERT(ordinal == frontOrdinal_ + agenCount_);
        ++agenCount_;
    }

    /** The entry's address has been computed (so have all older ones). */
    bool
    addrComputed(std::uint64_t ordinal) const
    {
        WSRS_ASSERT(ordinal >= frontOrdinal_);
        return ordinal < frontOrdinal_ + agenCount_;
    }

    /** Capture a store's data value (at or after its issue). */
    void
    setStoreData(std::uint64_t ordinal, std::uint64_t value)
    {
        Entry &e = at(ordinal);
        WSRS_ASSERT(e.isStore);
        e.storeValue = value;
        e.dataReady = true;
    }

    bool
    storeDataReady(std::uint64_t ordinal) const
    {
        return at(ordinal).dataReady;
    }

    std::uint64_t
    storeData(std::uint64_t ordinal) const
    {
        const Entry &e = at(ordinal);
        WSRS_ASSERT(e.dataReady);
        return e.storeValue;
    }

    /**
     * Probe the youngest older in-flight store aliasing @p addr.
     * @pre addrComputed(load_ordinal) — hence all older addresses known.
     */
    ForwardProbe
    probeForward(std::uint64_t load_ordinal, Addr addr) const
    {
        WSRS_ASSERT(addrComputed(load_ordinal));
        // Stores whose addresses share a bucket form one chain (youngest
        // first), so the probe walks only those instead of every older
        // entry, skipping other addresses and stores younger than the
        // load. Chain links below frontOrdinal_ point at retired (and
        // possibly recycled) slots and terminate the walk: no live older
        // store aliases.
        std::uint64_t link = heads_[bucket(addr)];
        while (link > frontOrdinal_) {
            const std::uint64_t o = link - 1;
            const Entry &e = entries_[o & mask_];
            if (o < load_ordinal && e.addr == addr) {
                WSRS_ASSERT(e.isStore);
                return {true, e.dataReady, e.storeValue};
            }
            link = e.prevStore;
        }
        return {};
    }

    /** Pop the oldest entry at commit. @pre its address was computed. */
    void
    popFront()
    {
        WSRS_ASSERT(size_ > 0);
        WSRS_ASSERT(agenCount_ > 0);
        ++frontOrdinal_;
        --size_;
        --agenCount_;
    }

    void snapshot(ckpt::Writer &w) const override { transfer(*this, w); }
    void restore(ckpt::Reader &r) override { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        ckpt::expect(io, self.capacity_, 4, "LSQ capacity mismatch");
        io.u64(self.frontOrdinal_);
        io.u64(self.agenCount_);
        std::uint64_t n = self.size_;
        io.u64(n);
        ckpt::check(io, n <= self.capacity_ && self.agenCount_ <= n,
                    "LSQ occupancy out of range");
        if constexpr (Io::kLoading) {
            self.size_ = n;
            std::fill(self.heads_.begin(), self.heads_.end(), 0);
        }
        for (std::uint64_t o = self.frontOrdinal_; o != self.frontOrdinal_ + n;
             ++o) {
            auto &e = self.entries_[o & self.mask_];
            io.u64(e.addr);
            io.u64(e.storeValue);
            io.u64(e.robNum);
            io.b(e.isStore);
            io.b(e.dataReady);
            // The forwarding chains are derived state: rebuild them in
            // ordinal order rather than serializing them.
            if constexpr (Io::kLoading) {
                e.prevStore = 0;
                if (e.isStore)
                    self.linkStore(e, o);
            }
        }
    }

    struct Entry
    {
        Addr addr;
        std::uint64_t storeValue;
        std::uint64_t robNum;
        std::uint64_t prevStore;  // 1 + ordinal of next-older store in
                                  // the same bucket; 0 or a retired
                                  // ordinal ends the chain.
        bool isStore;
        bool dataReady;
    };

    std::size_t bucket(Addr addr) const { return mix64(addr) & headMask_; }

    /** Push store @p e (at @p ordinal) onto its bucket's chain. */
    void
    linkStore(Entry &e, std::uint64_t ordinal)
    {
        std::uint64_t &head = heads_[bucket(e.addr)];
        e.prevStore = head;
        head = ordinal + 1;
    }

    Entry &
    at(std::uint64_t ordinal)
    {
        WSRS_ASSERT(ordinal >= frontOrdinal_ &&
                    ordinal - frontOrdinal_ < size_);
        return entries_[ordinal & mask_];
    }

    const Entry &
    at(std::uint64_t ordinal) const
    {
        return const_cast<LoadStoreQueue *>(this)->at(ordinal);
    }

    unsigned capacity_;               ///< Configured architectural limit.
    std::vector<Entry> entries_;      ///< Pow2 ring, ordinal & mask_ slots.
    /// Youngest store per address bucket (1 + ordinal; a retired ordinal
    /// or 0 means none in flight). Derived state — rebuilt on restore,
    /// never serialized.
    std::vector<std::uint64_t> heads_;
    std::size_t mask_ = 0;
    std::size_t headMask_ = 0;
    std::uint64_t size_ = 0;          ///< Live entries.
    std::uint64_t frontOrdinal_ = 0;  ///< Ordinal of the oldest entry.
    std::uint64_t agenCount_ = 0;     ///< Computed addresses at the front.
};

} // namespace wsrs::core
