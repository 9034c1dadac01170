/**
 * @file
 * Length-prefixed, CRC-checked message framing for the sweep service.
 *
 * Wire layout (all integers little-endian):
 *
 *   frame := magic[4]="WSVF" u32 type u64 traceId u64 payloadLen payload
 *            u32 crc32(type || traceId || payloadLen || payload)
 *
 * traceId is the sweep's telemetry trace identifier (0 = untraced): the
 * coordinator mints it when the sweep is submitted and stamps it on every
 * frame it sends; workers echo it back, which propagates the id across
 * the process boundary without touching any payload codec (see
 * docs/observability.md, "service telemetry").
 *
 * Control frames (handshakes, leases, errors) carry JSON
 * payloads; JobDone carries the binary ckpt::Writer encoding of a
 * SweepOutcome (the journal codec, reused verbatim so a streamed result
 * and a journaled one are the same bytes). Payloads are bounded
 * (kMaxFramePayload) so a broken or malicious peer cannot make a receiver
 * buffer unboundedly; anything damaged — bad magic, oversized length,
 * truncation, CRC mismatch — is an IoError naming what broke, mirroring
 * the checkpoint container's diagnostics.
 */
#pragma once

#include <cstdint>
#include <string>

#include "src/svc/transport.h"

namespace wsrs::svc {

/** Frame type tags (wire values are stable; append only). */
enum class FrameType : std::uint32_t {
    // Coordinator <-> worker.
    Hello = 1,       ///< worker->coord JSON {role, pid, sweep_key, jobs}.
    HelloAck = 2,    ///< coord->worker JSON {ok, error?}.
    Claim = 3,       ///< worker->coord JSON {}.
    Lease = 4,       ///< coord->worker JSON {shard, jobs: [indices]}.
    NoWork = 5,      ///< coord->worker JSON {}: sweep drained, retire.
    JobDone = 6,     ///< worker->coord binary: u64 index || outcome.
    ShardDone = 7,   ///< worker->coord JSON {shard}.
    WorkerStats = 8, ///< worker->coord JSON warm-up cache counters.
    SpanBatch = 9,   ///< worker->coord binary span events (proto.h).
    // 16-21 are retired wire values; never reuse them.
    Error = 22,      ///< either way JSON {error}.
};

/** Human-readable frame-type name (diagnostics). */
const char *frameTypeName(FrameType type);

/** Hard upper bound on a frame payload (64 MiB). */
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Error;
    std::uint64_t traceId = 0; ///< Sweep telemetry trace (0 = untraced).
    std::string payload;
};

/** Serialize a frame to its wire bytes. */
std::string encodeFrame(FrameType type, std::string_view payload,
                        std::uint64_t traceId = 0);

/** Send one frame; false when the peer is gone. */
bool sendFrame(Stream &stream, FrameType type, std::string_view payload,
               std::uint64_t traceId = 0);

/**
 * Receive exactly one frame.
 * @return false on orderly EOF before the first byte.
 * @throws wsrs::IoError on torn frames, bad magic, oversized payloads or
 *         CRC mismatch (with the offending values in the message).
 */
bool recvFrame(Stream &stream, Frame &out);

} // namespace wsrs::svc
