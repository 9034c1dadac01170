/**
 * @file
 * Open-addressing u64 -> u64 hash map for simulator-hot lookups.
 *
 * The memory image's page index (workload::MemoryImage) is probed on every
 * memory access; std::unordered_map's node allocation and pointer chasing
 * made such lookups one of the largest single costs in the issue stage.
 * This map keeps {occupied, key, value} together in one flat slot array
 * with linear probing (power-of-two capacity, mix64 hash), so a probe
 * touches a single cache line instead of one line per parallel array.
 *
 * Supports exactly what the page index needs: insert-or-assign and find
 * (no erase, no iteration; MemoryImage::clear assigns a fresh map).
 */
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "src/common/hash.h"
#include "src/common/log.h"

namespace wsrs {

/** Flat linear-probing hash map from uint64 keys to uint64 values. */
class FlatMap64
{
  public:
    FlatMap64() { slots_.resize(kMinCapacity); }

    /** Pointer to the value for @p key, or nullptr when absent. */
    const std::uint64_t *
    find(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.val;
        }
    }

    /** Value reference for @p key, default-inserting 0 when absent. */
    std::uint64_t &
    operator[](std::uint64_t key)
    {
        if (2 * (size_ + 1) > slots_.size())
            rehash(slots_.size() * 2);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (!s.used) {
                s.used = 1;
                s.key = key;
                s.val = 0;
                ++size_;
                return s.val;
            }
            if (s.key == key)
                return s.val;
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint64_t val = 0;
        std::uint8_t used = 0;
    };

    static constexpr std::size_t kMinCapacity = 64;

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(cap, Slot{});
        const std::size_t mask = cap - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t j = mix64(s.key) & mask;
            while (slots_[j].used)
                j = (j + 1) & mask;
            slots_[j] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace wsrs
