/**
 * @file
 * Integrity contract of the WSVF frame layer: round trips over a real
 * stream pair, and loud IoError diagnostics for every kind of damage —
 * bad magic, oversized declared length, truncation, CRC mismatch.
 */
#include <gtest/gtest.h>

#include <thread>

#include "src/common/log.h"
#include "src/svc/frame.h"
#include "src/svc/transport.h"
#include "tests/support/fnv.h"

namespace wsrs::svc {
namespace {

TEST(Frame, RoundTripsOverAStreamPair)
{
    auto [a, b] = localPair();
    const std::string payload = "{\"x\": 1}";
    ASSERT_TRUE(sendFrame(*a, FrameType::Hello, payload));
    Frame got;
    ASSERT_TRUE(recvFrame(*b, got));
    EXPECT_EQ(got.type, FrameType::Hello);
    EXPECT_EQ(got.payload, payload);
    EXPECT_EQ(got.traceId, 0u); // Untraced unless the sender stamps one.
}

TEST(Frame, PropagatesTheTraceId)
{
    auto [a, b] = localPair();
    const std::uint64_t trace = 0x1122334455667788ull;
    ASSERT_TRUE(sendFrame(*a, FrameType::Lease, "{\"shard\": 0}", trace));
    Frame got;
    ASSERT_TRUE(recvFrame(*b, got));
    EXPECT_EQ(got.type, FrameType::Lease);
    EXPECT_EQ(got.traceId, trace);
}

TEST(Frame, CorruptTraceIdFailsTheCrc)
{
    auto [a, b] = localPair();
    std::string wire = encodeFrame(FrameType::Claim, "{}", 42);
    wire[4 + 4 + 3] ^= 0x01; // Flip one traceId bit.
    ASSERT_TRUE(a->writeAll(wire.data(), wire.size()));
    Frame got;
    EXPECT_THROW(recvFrame(*b, got), IoError);
}

TEST(Frame, RoundTripsBinaryAndEmptyPayloads)
{
    auto [a, b] = localPair();
    std::string binary;
    for (int i = 0; i < 256; ++i)
        binary.push_back(static_cast<char>(i));
    ASSERT_TRUE(sendFrame(*a, FrameType::JobDone, binary));
    ASSERT_TRUE(sendFrame(*a, FrameType::Claim, ""));
    Frame got;
    ASSERT_TRUE(recvFrame(*b, got));
    EXPECT_EQ(got.payload, binary);
    ASSERT_TRUE(recvFrame(*b, got));
    EXPECT_EQ(got.type, FrameType::Claim);
    EXPECT_TRUE(got.payload.empty());
}

TEST(Frame, CleanEofAtBoundaryIsNotAnError)
{
    auto [a, b] = localPair();
    a->close();
    Frame got;
    EXPECT_FALSE(recvFrame(*b, got));
}

TEST(Frame, EofMidFrameIsAnIoError)
{
    auto [a, b] = localPair();
    const std::string wire = encodeFrame(FrameType::Hello, "{\"k\": 1}");
    // Send only half the frame, then hang up.
    ASSERT_TRUE(a->writeAll(wire.data(), wire.size() / 2));
    a->close();
    Frame got;
    EXPECT_THROW(recvFrame(*b, got), IoError);
}

TEST(Frame, BadMagicIsAnIoError)
{
    auto [a, b] = localPair();
    std::string wire = encodeFrame(FrameType::Hello, "{}");
    wire[0] = 'X';
    ASSERT_TRUE(a->writeAll(wire.data(), wire.size()));
    Frame got;
    try {
        recvFrame(*b, got);
        FAIL() << "bad magic accepted";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
}

TEST(Frame, CorruptPayloadFailsTheCrc)
{
    auto [a, b] = localPair();
    std::string wire = encodeFrame(FrameType::Lease, "{\"shard\": 3}");
    wire[4 + 4 + 8 + 8 + 2] ^= 0x40; // Flip one payload bit.
    ASSERT_TRUE(a->writeAll(wire.data(), wire.size()));
    Frame got;
    try {
        recvFrame(*b, got);
        FAIL() << "corrupt payload accepted";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("lease"), std::string::npos);
    }
}

TEST(Frame, OversizedDeclaredLengthIsRefusedBeforeBuffering)
{
    auto [a, b] = localPair();
    std::string wire = encodeFrame(FrameType::Hello, "{}");
    // Rewrite the length field to 1 TiB; the receiver must refuse the
    // allocation instead of trusting the peer.
    const std::uint64_t huge = 1ull << 40;
    for (int i = 0; i < 8; ++i)
        wire[4 + 4 + 8 + i] = static_cast<char>(huge >> (8 * i));
    ASSERT_TRUE(a->writeAll(wire.data(), wire.size()));
    Frame got;
    try {
        recvFrame(*b, got);
        FAIL() << "oversized frame accepted";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos);
    }
}

TEST(Frame, EncodeRefusesOversizedPayloadUpFront)
{
    // The send side enforces the same bound (FatalError: caller bug, not
    // wire damage).
    std::string big(kMaxFramePayload + 1, 'x');
    EXPECT_THROW(encodeFrame(FrameType::JobDone, big), FatalError);
}

// Locks the WSVF wire bytes: the hash was taken from the encoder before
// the frame codec moved onto the shared little-endian helpers, so an
// encoder and decoder that drift together still fail here.
TEST(Frame, WireBytesAreGolden)
{
    const std::string wire =
        encodeFrame(FrameType::Lease, "{\"shard\": 7, \"jobs\": [1, 2, 3]}",
                    0x1122334455667788ull);
    EXPECT_EQ(wire.size(), 4u + 4 + 8 + 8 + 31 + 4);
    const std::uint64_t hash = test::fnv1a(wire);
    EXPECT_EQ(hash, 0xaba6f495c2071cd7ull) << std::hex << hash;
}

} // namespace
} // namespace wsrs::svc
