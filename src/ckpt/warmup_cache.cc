#include "warmup_cache.h"

namespace wsrs::ckpt {

std::shared_ptr<const std::string>
WarmupCache::getOrBuild(std::uint64_t key, const Builder &build,
                        Source *source)
{
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lk(mapMu_);
        auto &s = slots_[key];
        if (!s)
            s = std::make_shared<Slot>();
        slot = s;
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
