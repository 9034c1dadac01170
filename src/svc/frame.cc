#include "frame.h"

#include <cstring>

#include "src/ckpt/io.h"
#include "src/common/log.h"

namespace wsrs::svc {

namespace {

constexpr char kFrameMagic[4] = {'W', 'S', 'V', 'F'};
// magic, type, traceId, length.
constexpr std::size_t kHeadBytes = 4 + 4 + 8 + 8;

/** Read exactly @p len bytes. 1 = ok, 0 = EOF at a frame boundary
 *  (nothing read), throws on EOF mid-frame or stream error. */
int
readExact(Stream &stream, char *buf, std::size_t len, bool atBoundary)
{
    std::size_t done = 0;
    while (done < len) {
        const long n = stream.read(buf + done, len - done);
        if (n < 0)
            fatalIo("service stream read error after %zu bytes", done);
        if (n == 0) {
            if (done == 0 && atBoundary)
                return 0;
            fatalIo("service stream closed mid-frame: got %zu of %zu "
                    "bytes",
                    done, len);
        }
        done += static_cast<std::size_t>(n);
    }
    return 1;
}

/** CRC over the encoded type, traceId and length fields of @p head,
 *  chained over @p payload. */
std::uint32_t
frameCrc(const char *head, std::string_view payload)
{
    const std::uint32_t crc =
        ckpt::crc32(head + sizeof(kFrameMagic),
                    kHeadBytes - sizeof(kFrameMagic));
    return ckpt::crc32(payload.data(), payload.size(), crc);
}

} // namespace

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::Hello: return "hello";
      case FrameType::HelloAck: return "hello_ack";
      case FrameType::Claim: return "claim";
      case FrameType::Lease: return "lease";
      case FrameType::NoWork: return "no_work";
      case FrameType::JobDone: return "job_done";
      case FrameType::ShardDone: return "shard_done";
      case FrameType::WorkerStats: return "worker_stats";
      case FrameType::SpanBatch: return "span_batch";
      case FrameType::Error: return "error";
    }
    return "unknown";
}

std::string
encodeFrame(FrameType type, std::string_view payload,
            std::uint64_t traceId)
{
    if (payload.size() > kMaxFramePayload)
        fatal("frame payload of %zu bytes exceeds the %llu-byte limit",
              payload.size(),
              static_cast<unsigned long long>(kMaxFramePayload));
    char head[kHeadBytes];
    std::memcpy(head, kFrameMagic, sizeof(kFrameMagic));
    ckpt::storeLe(head + 4, static_cast<std::uint32_t>(type), 4);
    ckpt::storeLe(head + 8, traceId, 8);
    ckpt::storeLe(head + 16, payload.size(), 8);
    char crc[4];
    ckpt::storeLe(crc, frameCrc(head, payload), 4);
    std::string out;
    out.reserve(kHeadBytes + payload.size() + sizeof(crc));
    out.append(head, kHeadBytes);
    out.append(payload.data(), payload.size());
    out.append(crc, sizeof(crc));
    return out;
}

bool
sendFrame(Stream &stream, FrameType type, std::string_view payload,
          std::uint64_t traceId)
{
    const std::string wire = encodeFrame(type, payload, traceId);
    return stream.writeAll(wire.data(), wire.size());
}

bool
recvFrame(Stream &stream, Frame &out)
{
    char head[kHeadBytes];
    if (readExact(stream, head, sizeof(head), true) == 0)
        return false;
    if (std::memcmp(head, kFrameMagic, sizeof(kFrameMagic)) != 0)
        fatalIo("bad service frame magic %02x%02x%02x%02x (protocol "
                "desync or non-wsrs peer)",
                static_cast<unsigned char>(head[0]),
                static_cast<unsigned char>(head[1]),
                static_cast<unsigned char>(head[2]),
                static_cast<unsigned char>(head[3]));
    const auto type = static_cast<std::uint32_t>(ckpt::loadLe(head + 4, 4));
    const std::uint64_t traceId = ckpt::loadLe(head + 8, 8);
    const std::uint64_t len = ckpt::loadLe(head + 16, 8);
    if (len > kMaxFramePayload)
        fatalIo("service frame of type %u declares %llu payload bytes, "
                "limit is %llu — refusing to buffer",
                type, static_cast<unsigned long long>(len),
                static_cast<unsigned long long>(kMaxFramePayload));
    out.type = static_cast<FrameType>(type);
    out.traceId = traceId;
    out.payload.resize(static_cast<std::size_t>(len));
    if (len > 0)
        readExact(stream, out.payload.data(),
                  static_cast<std::size_t>(len), false);
    char crcBuf[4];
    readExact(stream, crcBuf, sizeof(crcBuf), false);
    const auto stored = static_cast<std::uint32_t>(ckpt::loadLe(crcBuf, 4));
    const std::uint32_t computed = frameCrc(head, out.payload);
    if (stored != computed)
        fatalIo("service frame CRC mismatch on %s frame (stored %08x, "
                "computed %08x over %llu payload bytes)",
                frameTypeName(out.type), stored, computed,
                static_cast<unsigned long long>(len));
    return true;
}

} // namespace wsrs::svc
