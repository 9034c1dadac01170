/**
 * @file
 * Sparse architectural memory image shared by the core and the oracle.
 *
 * Both keep the dataflow value of every double-word a run has stored to;
 * every other address reads as memInitValue(). Host memory grows with the
 * simulated pages a run stores to: a 4 KiB page (512 double-word values
 * plus a 512-bit presence mask) is allocated on its first store and found
 * through a small page-number index. Keys are exact addresses, as the
 * dataflow semantics require: a store or load at an address that is not
 * 8-byte aligned (possible in external trace files) touches only its own
 * key, kept in a side map that generated traces never fill.
 *
 * Snapshot bytes: a u64 count, then (address, value) u64 pairs in
 * ascending address order.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/flat_map64.h"
#include "src/common/types.h"
#include "src/workload/dataflow.h"

namespace wsrs::workload {

/** Sparse address -> value image with a memInitValue() background. */
class MemoryImage : public ckpt::Snapshotter
{
  public:
    /** The stored value at @p a, or memInitValue(a) if never stored. */
    std::uint64_t
    load(Addr a) const
    {
        if (a & kWordMask) {
            const auto it = unaligned_.find(a);
            return it != unaligned_.end() ? it->second : memInitValue(a);
        }
        const std::uint64_t *idx = pageIndex_.find(a >> kPageShift);
        if (idx != nullptr) {
            const Page &p = *pages_[*idx - 1];
            const unsigned slot = slotOf(a);
            if (p.present[slot / 64] >> (slot % 64) & 1)
                return p.value[slot];
        }
        return memInitValue(a);
    }

    /** Set the value at @p a. */
    void
    store(Addr a, std::uint64_t v)
    {
        if (a & kWordMask) {
            unaligned_[a] = v;
            return;
        }
        std::uint64_t &idx = pageIndex_[a >> kPageShift];
        if (idx == 0) {
            // Index values are 1-based so FlatMap64's default-inserted 0
            // marks a page that does not exist yet.
            pages_.push_back(std::make_unique<Page>());
            pages_.back()->number = a >> kPageShift;
            idx = pages_.size();
        }
        Page &p = *pages_[idx - 1];
        const unsigned slot = slotOf(a);
        std::uint64_t &word = p.present[slot / 64];
        const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        alignedCount_ += (word & bit) == 0;
        word |= bit;
        p.value[slot] = v;
    }

    /** Number of distinct stored addresses. */
    std::size_t size() const { return alignedCount_ + unaligned_.size(); }

    /** Drop every stored value and release the pages. */
    void clear();

    /** Write the image as a count and address-sorted (address, value). */
    void snapshot(ckpt::Writer &w) const override;

    /**
     * Replace the image with one written by snapshot(). A count larger
     * than the remaining payload could hold fails before any pair is read.
     */
    void restore(ckpt::Reader &r) override;

  private:
    static constexpr unsigned kPageShift = 12;
    static constexpr unsigned kWordsPerPage = 1u << (kPageShift - 3);
    static constexpr Addr kWordMask = 7;

    struct Page
    {
        std::array<std::uint64_t, kWordsPerPage> value{};
        std::array<std::uint64_t, kWordsPerPage / 64> present{};
        std::uint64_t number = 0;  ///< Address >> kPageShift.
    };

    static unsigned
    slotOf(Addr a)
    {
        return static_cast<unsigned>(a >> 3) & (kWordsPerPage - 1);
    }

    /** Page number -> 1 + position in pages_. */
    FlatMap64 pageIndex_;
    std::vector<std::unique_ptr<Page>> pages_;
    std::size_t alignedCount_ = 0;
    std::map<Addr, std::uint64_t> unaligned_;
};

} // namespace wsrs::workload
