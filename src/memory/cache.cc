#include "cache.h"

#include <bit>

namespace wsrs::memory {

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (params.lineBytes == 0 || !std::has_single_bit(params.lineBytes))
        fatal("cache line size %u is not a power of two", params.lineBytes);
    if (params.assoc == 0)
        fatal("cache associativity must be positive");
    if (params.sizeBytes % (std::uint64_t{params.lineBytes} * params.assoc))
        fatal("cache size %llu not divisible by way size",
              static_cast<unsigned long long>(params.sizeBytes));
    numSets_ = params.sizeBytes / params.lineBytes / params.assoc;
    if (!std::has_single_bit(numSets_))
        fatal("cache set count %llu is not a power of two",
              static_cast<unsigned long long>(numSets_));
    if (params.replacement == ReplacementPolicy::TreePlru &&
        !std::has_single_bit(params.assoc))
        fatal("tree-PLRU needs a power-of-two associativity (got %u)",
              params.assoc);
    lineShift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(params.lineBytes)));
    lines_.assign(numSets_ * params.assoc, Line{});
    plruBits_.assign(numSets_, 0);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::size_t>((addr >> lineShift_) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

void
Cache::touch(Line &line, std::size_t set_index, unsigned way)
{
    switch (params_.replacement) {
      case ReplacementPolicy::Lru:
        line.lruStamp = stamp_;
        break;
      case ReplacementPolicy::TreePlru: {
        // Flip the tree bits along the path to point *away* from this way.
        std::uint32_t &bits = plruBits_[set_index];
        unsigned node = 1;
        for (unsigned level = params_.assoc / 2; level >= 1; level /= 2) {
            const bool right = (way / level) & 1;
            if (right)
                bits &= ~(1u << node);
            else
                bits |= (1u << node);
            node = 2 * node + (right ? 1 : 0);
        }
        break;
      }
      case ReplacementPolicy::Fifo:
      case ReplacementPolicy::Random:
        break;  // No state update on hit.
    }
}

unsigned
Cache::victimWay(std::size_t set_base, std::size_t set_index)
{
    // Invalid ways always win.
    for (unsigned w = 0; w < params_.assoc; ++w)
        if (!lines_[set_base + w].valid)
            return w;

    switch (params_.replacement) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        unsigned victim = 0;
        for (unsigned w = 1; w < params_.assoc; ++w)
            if (lines_[set_base + w].lruStamp <
                lines_[set_base + victim].lruStamp)
                victim = w;
        return victim;
      }
      case ReplacementPolicy::Random: {
        rngState_ ^= rngState_ << 13;
        rngState_ ^= rngState_ >> 7;
        rngState_ ^= rngState_ << 17;
        return static_cast<unsigned>(rngState_ % params_.assoc);
      }
      case ReplacementPolicy::TreePlru: {
        const std::uint32_t bits = plruBits_[set_index];
        unsigned node = 1;
        unsigned way = 0;
        for (unsigned level = params_.assoc / 2; level >= 1; level /= 2) {
            const bool right = (bits >> node) & 1;
            if (right)
                way += level;
            node = 2 * node + (right ? 1 : 0);
        }
        return way;
      }
    }
    WSRS_PANIC("unhandled replacement policy");
}

AccessOutcome
Cache::access(Addr addr, bool is_store)
{
    const std::size_t set_index = setIndex(addr);
    const std::size_t base = set_index * params_.assoc;
    const Addr tag = tagOf(addr);
    ++stamp_;

    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == tag) {
            touch(line, set_index, w);
            line.dirty = line.dirty || is_store;
            return {.hit = true, .writebackVictim = false};
        }
    }

    const unsigned w = victimWay(base, set_index);
    Line &victim = lines_[base + w];
    const bool writeback = victim.valid && victim.dirty;
    victim.valid = true;
    victim.tag = tag;
    victim.dirty = is_store;
    victim.lruStamp = stamp_;  // Fill time (FIFO) == first touch (LRU).
    touch(victim, set_index, w);
    return {.hit = false, .writebackVictim = writeback};
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setIndex(addr) * params_.assoc;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &line = lines_[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

template <typename Self, typename Io>
void
Cache::transfer(Self &self, Io &io)
{
    // Geometry header lets restore() reject a mismatched target.
    const char *geometry =
        "cache geometry mismatch between checkpoint and restore target";
    ckpt::expect(io, self.numSets_, 8, geometry);
    ckpt::expect(io, self.params_.assoc, 4, geometry);
    ckpt::expect(io, self.params_.lineBytes, 4, geometry);
    ckpt::expect(io, static_cast<std::uint8_t>(self.params_.replacement), 1,
                 geometry);
    io.u64(self.stamp_);
    io.u64(self.rngState_);
    for (auto &line : self.lines_) {
        io.u64(line.tag);
        io.b(line.valid);
        io.b(line.dirty);
        io.u64(line.lruStamp);
    }
    ckpt::vecExact(io, self.plruBits_, "cache PLRU bits");
}

void Cache::snapshot(ckpt::Writer &w) const { transfer(*this, w); }
void Cache::restore(ckpt::Reader &r) { transfer(*this, r); }

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
    for (auto &bits : plruBits_)
        bits = 0;
    stamp_ = 0;
}

} // namespace wsrs::memory
