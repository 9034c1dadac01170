/** @file Tests for the wsrs-ckpt-v1 checkpoint container format. */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/ckpt/io.h"
#include "src/common/log.h"

namespace wsrs::ckpt {
namespace {

/** Serialize a two-section checkpoint and return its bytes. */
std::string
makeCheckpoint(std::string_view kind, std::uint64_t meta_hash)
{
    std::ostringstream os(std::ios::binary);
    CheckpointWriter cw(os, "<test>", kind, meta_hash);
    {
        Writer w;
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdeadbeef);
        w.u64(0x0123456789abcdefull);
        w.d64(3.14159);
        w.b(true);
        w.str("hello, checkpoint");
        cw.section("alpha", w);
    }
    {
        Writer w;
        std::vector<std::uint64_t> v{1, 2, 3, 5, 8, 13};
        writeVec(w, v);
        cw.section("beta", w);
    }
    cw.finish();
    return os.str();
}

TEST(CkptIo, Crc32MatchesKnownVector)
{
    // The canonical IEEE 802.3 check value for "123456789".
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(CkptIo, WriterReaderRoundTripAllTypes)
{
    Writer w;
    w.u8(0xff);
    w.u16(0xbeef);
    w.u32(0x12345678);
    w.u64(~0ull);
    w.d64(-0.0);
    w.b(false);
    w.str("");
    w.str("x\0y");  // literal keeps only "x": verify embedded use via size
    Reader r(w.buffer(), "<mem>");
    EXPECT_EQ(r.u8(), 0xffu);
    EXPECT_EQ(r.u16(), 0xbeefu);
    EXPECT_EQ(r.u32(), 0x12345678u);
    EXPECT_EQ(r.u64(), ~0ull);
    const double d = r.d64();
    EXPECT_EQ(d, 0.0);
    EXPECT_TRUE(std::signbit(d));
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), "x");
    EXPECT_TRUE(r.atEnd());
}

TEST(CkptIo, ReaderReportsTruncationWithOffset)
{
    Writer w;
    w.u32(7);
    Reader r(w.buffer(), "<mem>", 100);
    EXPECT_EQ(r.u32(), 7u);
    try {
        (void)r.u64();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("104"), std::string::npos)
            << e.what();
    }
}

TEST(CkptIo, ReadVecRejectsACountTheBytesCannotHold)
{
    // A crafted count must be a FatalError naming the count and the room
    // left, not a std::length_error out of vector::reserve.
    Writer w;
    w.u64(1ull << 62);
    w.u32(1);
    Reader r(w.buffer(), "<mem>");
    std::vector<std::uint32_t> v;
    try {
        readVec(r, v);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("4611686018427387904"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4 bytes remaining"), std::string::npos) << msg;
    }
}

TEST(CkptIo, ContainerRoundTrip)
{
    const std::string bytes = makeCheckpoint(kKindFullSim, 0x1122334455667788);
    std::istringstream is(bytes, std::ios::binary);
    CheckpointReader cr(is, "<test>");
    EXPECT_EQ(cr.kind(), kKindFullSim);
    EXPECT_EQ(cr.metaHash(), 0x1122334455667788u);
    EXPECT_EQ(cr.sectionCount(), 2u);
    EXPECT_TRUE(cr.hasSection("alpha"));
    EXPECT_TRUE(cr.hasSection("beta"));
    EXPECT_FALSE(cr.hasSection("gamma"));
    cr.expect(kKindFullSim, 0x1122334455667788);

    Reader a = cr.section("alpha");
    EXPECT_EQ(a.u8(), 0xabu);
    EXPECT_EQ(a.u16(), 0x1234u);
    EXPECT_EQ(a.u32(), 0xdeadbeefu);
    EXPECT_EQ(a.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(a.d64(), 3.14159);
    EXPECT_TRUE(a.b());
    EXPECT_EQ(a.str(), "hello, checkpoint");
    EXPECT_TRUE(a.atEnd());

    Reader b = cr.section("beta");
    std::vector<std::uint64_t> v;
    readVecExact(b, v, 6, "fib");
    EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3, 5, 8, 13}));
}

/**
 * The error of parsing @p bytes through the stream constructor and
 * through the in-place one; both must fail, with the same message (so the
 * same byte offset), which is returned.
 */
std::string
parseError(const std::string &bytes, const std::string &origin)
{
    std::string from_stream, in_place;
    try {
        std::istringstream is(bytes, std::ios::binary);
        CheckpointReader cr(is, origin);
    } catch (const FatalError &e) {
        from_stream = e.what();
    }
    try {
        CheckpointReader cr(std::string_view(bytes), origin);
    } catch (const FatalError &e) {
        in_place = e.what();
    }
    EXPECT_FALSE(from_stream.empty()) << "the stream constructor accepted it";
    EXPECT_EQ(in_place, from_stream);
    return in_place;
}

/** True if @p msg names byte offset @p at. */
bool
namesOffset(const std::string &msg, std::size_t at)
{
    return msg.find("byte offset " + std::to_string(at) + ")") !=
           std::string::npos;
}

// Byte offsets in makeCheckpoint's output: the header is magic (8),
// version (4), meta hash (8) and the kind string (4 + 8 for "full-sim");
// section "alpha" has its frame at 32 and its payload at 57.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kAlphaFrameAt = 32;
constexpr std::size_t kAlphaPayloadAt = kAlphaFrameAt + 4 + 4 + 5 + 8 + 4;

TEST(CkptIo, InPlaceParseMatchesTheStream)
{
    const std::string bytes = makeCheckpoint(kKindFullSim, 7);
    const CheckpointReader cr(std::string_view(bytes), "<view>");
    EXPECT_EQ(cr.kind(), kKindFullSim);
    EXPECT_EQ(cr.metaHash(), 7u);
    EXPECT_EQ(cr.sectionCount(), 2u);
    Reader a = cr.section("alpha");
    EXPECT_EQ(a.offset(), kAlphaPayloadAt);
    EXPECT_EQ(a.u8(), 0xabu);
    Reader b = cr.section("beta");
    std::vector<std::uint64_t> v;
    readVecExact(b, v, 6, "fib");
    EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3, 5, 8, 13}));
}

TEST(CkptIo, DetectsSingleBitCorruption)
{
    std::string bytes = makeCheckpoint(kKindFullSim, 1);
    // Flip one bit inside the first section's payload.
    bytes[60] = static_cast<char>(bytes[60] ^ 0x10);
    const std::string msg = parseError(bytes, "corrupt.ckpt");
    EXPECT_NE(msg.find("corrupt.ckpt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("CRC"), std::string::npos) << msg;
    EXPECT_TRUE(namesOffset(msg, kAlphaPayloadAt)) << msg;
}

TEST(CkptIo, DetectsTruncation)
{
    const std::string bytes = makeCheckpoint(kKindFullSim, 1);
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{20}, bytes.size() / 2,
          bytes.size() - 3}) {
        const std::string msg = parseError(bytes.substr(0, keep), "trunc.ckpt");
        EXPECT_NE(msg.find("trunc"), std::string::npos)
            << "kept " << keep << " of " << bytes.size() << " bytes: " << msg;
    }
    // A cut inside alpha's payload is reported where the payload starts.
    const std::string msg = parseError(bytes.substr(0, 60), "trunc.ckpt");
    EXPECT_NE(msg.find("truncated section 'alpha'"), std::string::npos)
        << msg;
    EXPECT_TRUE(namesOffset(msg, kAlphaPayloadAt)) << msg;
}

TEST(CkptIo, DetectsBadMagicAndVersionSkew)
{
    std::string bytes = makeCheckpoint(kKindFullSim, 1);
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_NE(parseError(bad, "x").find("bad magic"), std::string::npos);

    std::string skew = bytes;
    skew[kVersionAt] = static_cast<char>(kFormatVersion + 1);  // u32 LSB
    EXPECT_NE(parseError(skew, "x").find("format version " +
                                         std::to_string(kFormatVersion + 1)),
              std::string::npos);
}

TEST(CkptIo, DetectsDuplicateSectionAndTrailerCount)
{
    std::ostringstream os(std::ios::binary);
    CheckpointWriter cw(os, "<test>", kKindFullSim, 1);
    Writer w;
    w.u32(5);
    cw.section("alpha", w);
    cw.section("alpha", w);
    cw.finish();
    // The duplicate is reported just past its payload.
    const std::size_t second_end = kAlphaFrameAt + 2 * (4 + 4 + 5 + 8 + 4 + 4);
    const std::string dup = parseError(os.str(), "dup.ckpt");
    EXPECT_NE(dup.find("duplicate section"), std::string::npos) << dup;
    EXPECT_TRUE(namesOffset(dup, second_end)) << dup;

    std::string bytes = makeCheckpoint(kKindFullSim, 1);
    bytes[bytes.size() - 4] = 3;  // trailer count u32 LSB: 2 -> 3
    EXPECT_NE(parseError(bytes, "count.ckpt")
                  .find("trailer declares 3 sections, found 2"),
              std::string::npos);
}

TEST(CkptIo, ExpectRejectsKindAndMetaMismatch)
{
    const std::string bytes = makeCheckpoint(kKindWarmup, 42);
    std::istringstream is(bytes, std::ios::binary);
    CheckpointReader cr(is, "<test>");
    EXPECT_THROW(cr.expect(kKindFullSim, 42), FatalError);
    EXPECT_THROW(cr.expect(kKindWarmup, 43), FatalError);
    cr.expect(kKindWarmup, 42);  // matching pair passes
    EXPECT_THROW((void)cr.section("missing"), FatalError);
}

} // namespace
} // namespace wsrs::ckpt
