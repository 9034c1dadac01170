/**
 * @file
 * Thread-safe in-memory cache of warm-up snapshot blobs, keyed by a
 * configuration hash.
 *
 * Warm-up state depends only on (profile, memory geometry, predictor,
 * seed, warm-up length) — not on the core configuration being swept — so
 * each distinct key is built once and every other machine config restores
 * the cached blob. Builders for distinct keys run concurrently;
 * concurrent requests for the same key block until the first one
 * finishes, so no work is duplicated inside a process. Keys are
 * warmupKeyHash values, which already bind a blob to the profile, seed,
 * warm-up length, memory geometry and predictor.
 *
 * A blob lives only as long as requests for it are still coming: a caller
 * that knows its requests up front declares them with expect(), and the
 * cache drops its reference right after the last declared one, so the
 * blob is freed as soon as the requesters release theirs. A key with no
 * declared requests stays resident for the cache's lifetime.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace wsrs::ckpt {

/** Keyed blob cache with build-once semantics and hit/miss telemetry. */
class WarmupCache
{
  public:
    using Builder = std::function<std::string()>;

    /** Where getOrBuild found the blob it returned. */
    enum class Source { Memory, Built };

    /**
     * Declare @p n more requests for @p key. After the last declared
     * request returns, the cache holds no reference to the key's blob; a
     * request beyond the declared ones builds the blob again.
     */
    void expect(std::uint64_t key, std::uint64_t n = 1);

    /**
     * Return the blob for @p key from memory, or invoke @p build (at
     * most once per key while the blob is held) to produce it. Every call
     * consumes one declared request, even one whose build throws.
     * Exceptions from @p build propagate to the caller that ran it; the
     * slot is left empty so a later call retries. @p source, when given,
     * receives where the blob came from.
     */
    std::shared_ptr<const std::string>
    getOrBuild(std::uint64_t key, const Builder &build,
               Source *source = nullptr);

    /** Requests satisfied from memory. */
    std::uint64_t hits() const { return hits_.load(); }
    /** Requests that had to run the builder. */
    std::uint64_t misses() const { return misses_.load(); }
    /** Keys the cache still references (declared requests pending, or
     *  none declared). */
    std::size_t held() const;

  private:
    struct Slot
    {
        std::mutex mu;
        std::shared_ptr<const std::string> blob;
        /** Declared requests not yet made (0: none declared); guarded
         *  by mapMu_. */
        std::uint64_t expected = 0;
    };

    /** The slot for @p key, created on first use; mapMu_ held. */
    std::shared_ptr<Slot> &slotLocked(std::uint64_t key);

    mutable std::mutex mapMu_;
    std::map<std::uint64_t, std::shared_ptr<Slot>> slots_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace wsrs::ckpt
