/** @file Tests for the wsrs-ckpt-v1 checkpoint container format. */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/ckpt/io.h"
#include "src/ckpt/warmup_cache.h"
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

TEST(CkptIo, DetectsSingleBitCorruption)
{
    std::string bytes = makeCheckpoint(kKindFullSim, 1);
    // Flip one bit inside the first section's payload (past the header and
    // the section frame; the header is 8+4+8+4+len("full-sim") bytes).
    bytes[60] = static_cast<char>(bytes[60] ^ 0x10);
    std::istringstream is(bytes, std::ios::binary);
    try {
        CheckpointReader cr(is, "corrupt.ckpt");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("corrupt.ckpt"), std::string::npos) << msg;
        EXPECT_NE(msg.find("CRC"), std::string::npos) << msg;
    }
}

TEST(CkptIo, DetectsTruncation)
{
    const std::string bytes = makeCheckpoint(kKindFullSim, 1);
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{20}, bytes.size() / 2,
          bytes.size() - 3}) {
        std::istringstream is(bytes.substr(0, keep), std::ios::binary);
        EXPECT_THROW(CheckpointReader cr(is, "trunc.ckpt"), FatalError)
            << "kept " << keep << " of " << bytes.size() << " bytes";
    }
}

TEST(CkptIo, DetectsBadMagicAndVersionSkew)
{
    std::string bytes = makeCheckpoint(kKindFullSim, 1);
    std::string bad = bytes;
    bad[0] = 'X';
    std::istringstream is1(bad, std::ios::binary);
    EXPECT_THROW(CheckpointReader cr(is1, "x"), FatalError);

    std::string skew = bytes;
    skew[8] = static_cast<char>(kFormatVersion + 1);  // version u32 LSB
    std::istringstream is2(skew, std::ios::binary);
    EXPECT_THROW(CheckpointReader cr(is2, "x"), FatalError);
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

TEST(WarmupCache, BuildsOncePerKeyAndCountsHits)
{
    WarmupCache cache;
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return std::string("blob");
    };
    const auto a = cache.getOrBuild(1, build);
    const auto b = cache.getOrBuild(1, build);
    const auto c = cache.getOrBuild(2, build);
    EXPECT_EQ(*a, "blob");
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(WarmupCache, BuilderFailureLeavesSlotRetryable)
{
    WarmupCache cache;
    EXPECT_THROW(cache.getOrBuild(
                     9, [&]() -> std::string { fatal("builder exploded"); }),
                 FatalError);
    const auto ok = cache.getOrBuild(9, [] { return std::string("second"); });
    EXPECT_EQ(*ok, "second");
}

TEST(WarmupCache, ReportsWhetherMemoryOrBuilderAnswered)
{
    WarmupCache cache;
    const auto builder = [] { return std::string("source"); };
    using Source = WarmupCache::Source;
    Source source = Source::Memory;
    cache.getOrBuild(5, builder, &source);
    EXPECT_EQ(source, Source::Built);
    EXPECT_EQ(*cache.getOrBuild(5, builder, &source), "source");
    EXPECT_EQ(source, Source::Memory);
    cache.getOrBuild(6, builder, &source);
    EXPECT_EQ(source, Source::Built);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

} // namespace
} // namespace wsrs::ckpt
