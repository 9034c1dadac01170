/**
 * @file
 * Thread-safe cache of warm-up snapshot blobs, keyed by a configuration
 * hash, with an optional directory shared between processes.
 *
 * Warm-up state depends only on (profile, memory geometry, predictor,
 * seed, warm-up length) — not on the core configuration being swept — so
 * each distinct key is built once and every other machine config restores
 * the cached blob. getOrBuild looks in three places, in order:
 *
 *  1. memory: builders for distinct keys run concurrently; concurrent
 *     requests for the same key block until the first one finishes (no
 *     duplicated work inside a process);
 *  2. the directory, when one was given: each blob is published as
 *     `warmup-<key>.ckpt`, so a distributed sweep's worker *processes*
 *     share one build per key;
 *  3. the builder.
 *
 * The directory layer keeps four guarantees:
 *
 *  - build-once across processes: builders serialize on an flock(2)'d
 *    `warmup-<key>.lock` file, and the winner re-checks for a published
 *    entry before building, so concurrent workers build each key once;
 *  - atomic publish: the blob is written to a process-unique temp file and
 *    rename(2)'d into place, so readers never observe a half-written
 *    entry through the normal protocol;
 *  - corruption containment: every entry read back is re-validated as a
 *    wsrs-ckpt-v1 container (magic, section CRCs, trailer). A torn or
 *    tampered entry — e.g. written by a crashed process without the
 *    atomic-rename protocol — fails with the container's byte-offset
 *    diagnostics (IoError); getOrBuild additionally quarantines such an
 *    entry and rebuilds it instead of poisoning the sweep;
 *  - no stale reuse: entries are keyed by warmupKeyHash, which already
 *    binds a blob to the profile, seed, warm-up length, memory geometry
 *    and predictor — a directory reused across configurations misses.
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
    enum class Source { Memory, Disk, Built };

    /** Memory-only cache. */
    WarmupCache() = default;
    /** Cache backed by @p dir (created if missing; empty = memory-only). */
    explicit WarmupCache(std::string dir);

    /**
     * Return the blob for @p key from memory, then the directory, and
     * otherwise invoke @p build (at most once per key per process, and
     * once per directory) to produce it. A corrupt directory entry is
     * quarantined, counted, and rebuilt. Exceptions from @p build
     * propagate to the caller that ran it; the slot is left empty so a
     * later call retries. @p source, when given, receives where the blob
     * came from.
     */
    std::shared_ptr<const std::string>
    getOrBuild(std::uint64_t key, const Builder &build,
               Source *source = nullptr);

    /**
     * Read and validate the directory entry for @p key without building.
     * @throws wsrs::IoError with byte-offset diagnostics when the entry
     *         is missing, truncated or corrupt.
     */
    std::string load(std::uint64_t key) const;

    /** Whether a directory entry file for @p key currently exists. */
    bool contains(std::uint64_t key) const;

    /** Directory entry path for @p key (for tests and diagnostics). */
    std::string entryPath(std::uint64_t key) const;

    /** Requests satisfied from memory or a published directory entry. */
    std::uint64_t hits() const { return hits_.load(); }
    /** Requests that had to run the builder. */
    std::uint64_t misses() const { return misses_.load(); }
    /** Corrupt directory entries detected, quarantined and rebuilt. */
    std::uint64_t corruptRebuilds() const { return corruptRebuilds_.load(); }

  private:
    struct Slot
    {
        std::mutex mu;
        std::shared_ptr<const std::string> blob;
    };

    /** Blob for a memory miss: the intact directory entry, else a fresh
     *  build, published under the key's file lock when there is a
     *  directory. */
    std::string loadOrBuild(std::uint64_t key, const Builder &build,
                            Source &source);

    std::string dir_;
    std::mutex mapMu_;
    std::map<std::uint64_t, std::shared_ptr<Slot>> slots_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> corruptRebuilds_{0};
};

} // namespace wsrs::ckpt
