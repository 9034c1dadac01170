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
 */
#pragma once

#include <atomic>
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
     * Return the blob for @p key from memory, or invoke @p build (at
     * most once per key) to produce it. Exceptions from @p build
     * propagate to the caller that ran it; the slot is left empty so a
     * later call retries. @p source, when given, receives where the blob
     * came from.
     */
    std::shared_ptr<const std::string>
    getOrBuild(std::uint64_t key, const Builder &build,
               Source *source = nullptr);

    /** Requests satisfied from memory. */
    std::uint64_t hits() const { return hits_.load(); }
    /** Requests that had to run the builder. */
    std::uint64_t misses() const { return misses_.load(); }

  private:
    struct Slot
    {
        std::mutex mu;
        std::shared_ptr<const std::string> blob;
    };

    std::mutex mapMu_;
    std::map<std::uint64_t, std::shared_ptr<Slot>> slots_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace wsrs::ckpt
