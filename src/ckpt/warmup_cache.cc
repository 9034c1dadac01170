#include "warmup_cache.h"

namespace wsrs::ckpt {

std::shared_ptr<WarmupCache::Slot> &
WarmupCache::slotLocked(std::uint64_t key)
{
    auto &s = slots_[key];
    if (!s)
        s = std::make_shared<Slot>();
    return s;
}

void
WarmupCache::expect(std::uint64_t key, std::uint64_t n)
{
    std::lock_guard<std::mutex> lk(mapMu_);
    slotLocked(key)->expected += n;
}

std::size_t
WarmupCache::held() const
{
    std::lock_guard<std::mutex> lk(mapMu_);
    return slots_.size();
}

std::shared_ptr<const std::string>
WarmupCache::getOrBuild(std::uint64_t key, const Builder &build,
                        Source *source)
{
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lk(mapMu_);
        slot = slotLocked(key);
        // The last declared request unlinks the slot: once it and the
        // requests still waiting on the slot return, only callers hold
        // the blob.
        if (slot->expected > 0 && --slot->expected == 0)
            slots_.erase(key);
    }
    std::lock_guard<std::mutex> lk(slot->mu);
    Source from = Source::Memory;
    if (slot->blob) {
        hits_.fetch_add(1);
    } else {
        from = Source::Built;
        misses_.fetch_add(1);
        slot->blob = std::make_shared<const std::string>(build());
    }
    if (source)
        *source = from;
    return slot->blob;
}

} // namespace wsrs::ckpt
