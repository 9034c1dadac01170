/** @file Unit tests for the pipeline trace sinks. */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/obs/trace_sink.h"
#include "tests/support/fnv.h"

namespace wsrs::obs {
namespace {

UopTrace
sampleTrace(std::uint64_t seq)
{
    UopTrace t;
    t.seq = seq;
    t.pc = 0x400000 + 4 * seq;
    t.op = seq % 3 == 0 ? isa::OpClass::Store
                        : (seq % 3 == 1 ? isa::OpClass::Load
                                        : isa::OpClass::IntAlu);
    t.cluster = static_cast<ClusterId>(seq % 4);
    t.dstSubset = seq % 3 == 0 ? SubsetId{0xff}
                               : static_cast<SubsetId>(seq % 4);
    t.flags = seq % 5 == 0 ? kUopMispredicted : 0;
    t.fetchCycle = 10 + seq;
    t.renameCycle = 13 + seq;
    t.readyCycle = 15 + seq;
    t.issueCycle = 17 + seq;
    t.completeCycle = 18 + seq;
    t.commitCycle = 25 + seq;
    return t;
}

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::istringstream is(s);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

TEST(O3PipeView, EmitsOneSevenLineBlockPerUop)
{
    std::ostringstream os;
    O3PipeViewSink sink(os);
    sink.record(sampleTrace(2));  // IntAlu on cluster 2
    sink.finish();

    const auto lines = splitLines(os.str());
    ASSERT_EQ(lines.size(), 7u);
    EXPECT_EQ(lines[0], "O3PipeView:fetch:12:0x00400008:0:2:int_alu/c2");
    EXPECT_EQ(lines[1], "O3PipeView:decode:13");
    EXPECT_EQ(lines[2], "O3PipeView:rename:15");
    EXPECT_EQ(lines[3], "O3PipeView:dispatch:15");
    EXPECT_EQ(lines[4], "O3PipeView:issue:19");
    EXPECT_EQ(lines[5], "O3PipeView:complete:20");
    EXPECT_EQ(lines[6], "O3PipeView:retire:27:store:0");
}

TEST(O3PipeView, StoresCarryTheRetireStoreTimestamp)
{
    std::ostringstream os;
    O3PipeViewSink sink(os);
    sink.record(sampleTrace(0));  // Store, commit cycle 25
    const auto lines = splitLines(os.str());
    ASSERT_EQ(lines.size(), 7u);
    EXPECT_EQ(lines[6], "O3PipeView:retire:25:store:25");
}

TEST(BinaryTrace, RoundTripsEveryField)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    BinaryTraceSink sink(ss);
    const std::size_t kRecords = 100;
    for (std::size_t i = 0; i < kRecords; ++i)
        sink.record(sampleTrace(i));
    sink.finish();

    EXPECT_EQ(ss.str().size(),
              16u + kRecords * BinaryTraceSink::kRecordBytes);

    std::istringstream is(ss.str());
    const std::vector<UopTrace> back = readBinaryTrace(is);
    ASSERT_EQ(back.size(), kRecords);
    for (std::size_t i = 0; i < kRecords; ++i) {
        const UopTrace want = sampleTrace(i);
        const UopTrace &got = back[i];
        EXPECT_EQ(got.seq, want.seq);
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.cluster, want.cluster);
        EXPECT_EQ(got.dstSubset, want.dstSubset);
        EXPECT_EQ(got.flags, want.flags);
        EXPECT_EQ(got.fetchCycle, want.fetchCycle);
        EXPECT_EQ(got.renameCycle, want.renameCycle);
        EXPECT_EQ(got.readyCycle, want.readyCycle);
        EXPECT_EQ(got.issueCycle, want.issueCycle);
        EXPECT_EQ(got.completeCycle, want.completeCycle);
        EXPECT_EQ(got.commitCycle, want.commitCycle);
        EXPECT_EQ(got.wakeupLatency(), want.wakeupLatency());
    }
}

TEST(BinaryTrace, RejectsBadMagic)
{
    std::istringstream is("definitely not a trace file............");
    EXPECT_THROW(readBinaryTrace(is), FatalError);
}

TEST(BinaryTrace, RejectsWrongVersion)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    BinaryTraceSink sink(ss);
    std::string bytes = ss.str();
    ASSERT_GE(bytes.size(), 16u);
    bytes[8] = 2;  // little-endian version word
    std::istringstream is(bytes);
    EXPECT_THROW(readBinaryTrace(is), FatalError);
}

TEST(BinaryTrace, RejectsTruncatedRecord)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    BinaryTraceSink sink(ss);
    sink.record(sampleTrace(1));
    std::string bytes = ss.str();
    bytes.resize(bytes.size() - 10);
    std::istringstream is(bytes);
    EXPECT_THROW(readBinaryTrace(is), FatalError);
}

TEST(BinaryTrace, EmptyTraceIsValid)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    BinaryTraceSink sink(ss);
    sink.finish();
    std::istringstream is(ss.str());
    EXPECT_TRUE(readBinaryTrace(is).empty());
}

TEST(UopTrace, WakeupLatencyIsClampedAtZero)
{
    UopTrace t;
    t.readyCycle = 10;
    t.issueCycle = 14;
    EXPECT_EQ(t.wakeupLatency(), 4u);
    t.issueCycle = 8;  // ready recorded after issue (never-ready fallback)
    EXPECT_EQ(t.wakeupLatency(), 0u);
}

TEST(TimelineSink, KeepsTheLastRowsInCommitOrder)
{
    TimelineSink sink(4);
    for (std::uint64_t seq = 1; seq <= 10; ++seq)
        sink.record(sampleTrace(seq));
    const std::vector<UopTrace> kept = sink.records();
    ASSERT_EQ(kept.size(), 4u);
    for (std::size_t k = 0; k < kept.size(); ++k)
        EXPECT_EQ(kept[k].seq, 7 + k);

    // The ruler counts from the oldest kept row's rename (cycle 20).
    std::ostringstream os;
    sink.render(os);
    const auto lines = splitLines(os.str());
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0], "seq        cluster op       R=rename I=issue "
                        "C=complete X=commit (cycle - 20)");
    EXPECT_EQ(lines[1], "7          C3      load     R...IC......X");
    EXPECT_EQ(lines[4], "10         C2      load     ...R...IC......X"
                        "  <mispredict");
}

TEST(TimelineSink, RendersFewerRecordsThanRows)
{
    TimelineSink sink(64);
    std::ostringstream empty;
    sink.render(empty);
    EXPECT_EQ(empty.str(), "(timeline empty: no micro-op committed)\n");

    for (std::uint64_t seq = 1; seq <= 3; ++seq)
        sink.record(sampleTrace(seq));
    EXPECT_EQ(sink.records().size(), 3u);
    std::ostringstream os;
    sink.render(os);
    EXPECT_EQ(splitLines(os.str()).size(), 4u);
}

TEST(FanOutSink, ForwardsEveryRecordToEverySink)
{
    FanOutSink fan;
    EXPECT_TRUE(fan.empty());
    std::ostringstream text;
    fan.add<O3PipeViewSink>(text);
    const TimelineSink &timeline = fan.add<TimelineSink>(8);
    for (std::uint64_t seq = 1; seq <= 3; ++seq)
        fan.record(sampleTrace(seq));
    fan.finish();
    EXPECT_FALSE(fan.empty());
    EXPECT_EQ(splitLines(text.str()).size(), 3u * 7u);
    EXPECT_EQ(timeline.records().size(), 3u);
}

// Locks the WSRSPTR1 bytes; the hash was taken before the sink moved onto
// the shared little-endian helpers. The last record sets the high byte of
// every 64-bit field and saturates the 32-bit wake-up latency.
TEST(BinaryTrace, OutputBytesAreGolden)
{
    std::ostringstream os(std::ios::out | std::ios::binary);
    BinaryTraceSink sink(os);
    for (std::uint64_t i = 0; i < 16; ++i)
        sink.record(sampleTrace(i));
    UopTrace wide = sampleTrace(5);
    wide.seq = 0xf0e1d2c3b4a59687ull;
    wide.pc = 0x8899aabbccddeeffull;
    wide.readyCycle = 1;
    wide.issueCycle = 0x8000000000000000ull;
    wide.completeCycle = 0x8000000000000001ull;
    wide.commitCycle = 0xfffffffffffffffeull;
    sink.record(wide);
    sink.finish();
    const std::string bytes = os.str();
    EXPECT_EQ(bytes.size(), 16u + 17 * BinaryTraceSink::kRecordBytes);
    const std::uint64_t hash = test::fnv1a(bytes);
    EXPECT_EQ(hash, 0x56b0fba27148849bull) << std::hex << hash;
}

} // namespace
} // namespace wsrs::obs
