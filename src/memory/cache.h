/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * Timing is handled by MemoryHierarchy; this class models only the tag
 * state (hit/miss, allocation, eviction, dirty bits).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/log.h"
#include "src/common/types.h"

namespace wsrs::memory {

/** Victim-selection policy within a set. */
enum class ReplacementPolicy : std::uint8_t {
    Lru,       ///< True least-recently-used (default).
    Fifo,      ///< Oldest fill is evicted (insertion order).
    Random,    ///< Uniform random way (deterministic xorshift).
    TreePlru,  ///< Tree pseudo-LRU (the common hardware approximation).
};

/** Static parameters of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    ReplacementPolicy replacement = ReplacementPolicy::Lru;
};

/** Outcome of a cache access. */
struct AccessOutcome
{
    bool hit = false;
    bool writebackVictim = false;  ///< A dirty line was evicted.
};

/** Tag-state model of a single set-associative cache. */
class Cache : public ckpt::Snapshotter
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access a line; allocate on miss.
     *
     * @param addr byte address.
     * @param is_store marks the (possibly newly-filled) line dirty.
     */
    AccessOutcome access(Addr addr, bool is_store);

    /** Probe without state change. */
    bool probe(Addr addr) const;

    /** Invalidate everything (used between measurement phases). */
    void flush();

    const CacheParams &params() const { return params_; }
    std::uint64_t numSets() const { return numSets_; }

    /** Checkpoint all tag/replacement state (geometry is validated). */
    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;   ///< LRU: touch time; FIFO: fill time.
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    /** Pick the victim way in a set per the replacement policy. */
    unsigned victimWay(std::size_t set_base, std::size_t set_index);
    /** Update replacement state on a hit. */
    void touch(Line &line, std::size_t set_index, unsigned way);

    CacheParams params_;
    std::uint64_t numSets_;
    unsigned lineShift_;
    std::vector<Line> lines_;     ///< numSets_ x assoc, row-major.
    std::vector<std::uint32_t> plruBits_;  ///< One tree per set.
    std::uint64_t stamp_ = 0;     ///< Monotonic LRU clock.
    std::uint64_t rngState_ = 0x9e3779b9;  ///< Random replacement.
};

} // namespace wsrs::memory
