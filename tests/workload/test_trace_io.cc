/** @file Tests for the binary trace file format. */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/bpred/two_bc_gskew.h"
#include "src/ckpt/io.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/core/core.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"
#include "src/workload/trace_io.h"
#include "tests/support/fnv.h"

namespace wsrs::workload {
namespace {

/** Temporary file deleted on scope exit. */
struct TempFile
{
    TempFile()
    {
        path = (std::filesystem::temp_directory_path() /
                ("wsrs_trace_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++) + ".trc"))
                   .string();
    }
    ~TempFile() { std::remove(path.c_str()); }
    static inline int counter = 0;
    std::string path;
};

TEST(TraceIo, RoundTripPreservesEveryField)
{
    TempFile tmp;
    TraceGenerator gen(findProfile("vpr"), 3);
    std::vector<isa::MicroOp> original;
    {
        TraceWriter writer(tmp.path);
        for (int i = 0; i < 5000; ++i) {
            const isa::MicroOp op = gen.next();
            original.push_back(op);
            writer.append(op);
        }
        EXPECT_EQ(writer.written(), 5000u);
    }

    TraceReader reader(tmp.path);
    EXPECT_EQ(reader.records(), 5000u);
    for (const isa::MicroOp &want : original) {
        const isa::MicroOp got = reader.next();
        EXPECT_EQ(got.seq, want.seq);
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.src1, want.src1);
        EXPECT_EQ(got.src2, want.src2);
        EXPECT_EQ(got.dst, want.dst);
        EXPECT_EQ(got.commutative, want.commutative);
        EXPECT_EQ(got.taken, want.taken);
        EXPECT_EQ(got.target, want.target);
        EXPECT_EQ(got.effAddr, want.effAddr);
    }
}

TEST(TraceIo, WrapRestartsAtBeginningWithFreshSeqNumbers)
{
    TempFile tmp;
    TraceGenerator gen(findProfile("gzip"));
    isa::MicroOp first;
    {
        TraceWriter writer(tmp.path);
        for (int i = 0; i < 100; ++i) {
            const isa::MicroOp op = gen.next();
            if (i == 0)
                first = op;
            writer.append(op);
        }
    }
    TraceReader reader(tmp.path, /*wrap=*/true);
    for (int i = 0; i < 100; ++i)
        reader.next();
    const isa::MicroOp again = reader.next();
    EXPECT_EQ(again.pc, first.pc);
    EXPECT_EQ(again.seq, 100u);  // sequence numbers keep increasing
}

TEST(TraceIo, NoWrapFailsAtEof)
{
    TempFile tmp;
    {
        TraceWriter writer(tmp.path);
        TraceGenerator gen(findProfile("gzip"));
        for (int i = 0; i < 10; ++i)
            writer.append(gen.next());
    }
    TraceReader reader(tmp.path, /*wrap=*/false);
    for (int i = 0; i < 10; ++i)
        reader.next();
    EXPECT_THROW(reader.next(), FatalError);
}

TEST(TraceIo, RejectsMissingAndCorruptFiles)
{
    EXPECT_THROW(TraceReader r("/nonexistent/file.trc"), FatalError);

    TempFile tmp;
    {
        std::ofstream out(tmp.path, std::ios::binary);
        out << "not a trace file at all, definitely";
    }
    EXPECT_THROW(TraceReader r(tmp.path), FatalError);
}

/** Build a valid 5-record trace file at @p path and return its bytes. */
std::string
writeSmallTrace(const std::string &path)
{
    TraceGenerator gen(findProfile("gzip"));
    TraceWriter writer(path);
    for (int i = 0; i < 5; ++i)
        writer.append(gen.next());
    writer.close();
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string
messageFrom(const std::string &path)
{
    try {
        TraceReader r(path);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected TraceReader to reject '" << path << "'";
    return "";
}

TEST(TraceIo, TruncatedHeaderReportsByteCounts)
{
    TempFile tmp;
    const std::string bytes = writeSmallTrace(tmp.path);
    {
        std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, 10);
    }
    const std::string msg = messageFrom(tmp.path);
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("10 bytes"), std::string::npos) << msg;
}

TEST(TraceIo, TruncatedRecordRegionReportsOffsets)
{
    // Header (16 bytes) declares 5 records (5*30 bytes): the record region
    // should end at byte offset 166. Chop the file at byte 100.
    TempFile tmp;
    const std::string bytes = writeSmallTrace(tmp.path);
    ASSERT_EQ(bytes.size(), 166u);
    {
        std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, 100);
    }
    const std::string msg = messageFrom(tmp.path);
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declares 5 records"), std::string::npos) << msg;
    EXPECT_NE(msg.find("166"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100"), std::string::npos) << msg;
}

TEST(TraceIo, TrailingGarbageReportsWhereRecordsEnd)
{
    TempFile tmp;
    writeSmallTrace(tmp.path);
    {
        std::ofstream out(tmp.path, std::ios::binary | std::ios::app);
        out << "garbage";
    }
    const std::string msg = messageFrom(tmp.path);
    EXPECT_NE(msg.find("7 trailing bytes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("166"), std::string::npos) << msg;
}

TEST(TraceIo, InvalidOpClassReportsExactByteOffset)
{
    // Corrupt the op-class byte of record 3: header + 3 records + 24.
    TempFile tmp;
    std::string bytes = writeSmallTrace(tmp.path);
    const std::size_t off = 16 + 3 * 30 + 24;
    bytes[off] = static_cast<char>(0xee);
    {
        std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    TraceReader reader(tmp.path);
    for (int i = 0; i < 3; ++i)
        (void)reader.next();
    try {
        (void)reader.next();
        FAIL() << "expected FatalError for invalid op class";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("invalid op class"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(off)), std::string::npos) << msg;
    }
}

TEST(TraceIo, RecordedTraceDrivesTheCoreIdentically)
{
    // Simulating from a recorded trace must give cycle-identical results
    // to simulating from the live generator.
    TempFile tmp;
    const BenchmarkProfile &profile = findProfile("gcc");
    {
        TraceGenerator gen(profile, 0);
        TraceWriter writer(tmp.path);
        for (int i = 0; i < 80000; ++i)
            writer.append(gen.next());
    }

    auto simulate = [&](workload::MicroOpSource &src) {
        bpred::TwoBcGskew bp;
        StatGroup stats("t");
        memory::MemoryHierarchy mem(memory::HierarchyParams{}, stats);
        core::CoreParams params = sim::findPreset("WSRS-RC-512");
        params.verifyDataflow = true;
        core::Core machine(params, src, bp, mem);
        machine.run(50000);
        EXPECT_EQ(machine.stats().valueMismatches, 0u);
        return machine.stats().cycles;
    };

    TraceGenerator live(profile, 0);
    TraceReader recorded(tmp.path);
    EXPECT_EQ(simulate(live), simulate(recorded));
}

/** A register field the core can index: a logical register or none. */
bool
validReg(LogReg r)
{
    return r < isa::kNumLogRegs || r == kNoLogReg;
}

// Seeded mutants of a 24-record trace file: bit flips, truncations, and
// the header's record count set to 2^k or with bit k set. Each must read
// through (every record decoded to operands the core can index) or fail
// as a FatalError that names a byte offset; never a crash or a hang.
TEST(TraceIoMutator, EveryMutantReadsOrFailsAtAByteOffset)
{
    TempFile src;
    {
        TraceGenerator gen(findProfile("gzip"), 0);
        TraceWriter writer(src.path);
        for (int i = 0; i < 24; ++i)
            writer.append(gen.next());
    }
    std::ifstream is(src.path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes.size(), 16u + 24 * 30);

    std::vector<std::pair<std::string, std::string>> mutants;
    XorShiftRng rng(0x74726163);
    for (int i = 0; i < 200; ++i) {
        std::string m = bytes;
        if (i % 2 == 0) {
            for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0;
                 --flips)
                m[rng.below(m.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            mutants.emplace_back("bit flips " + std::to_string(i), m);
        } else {
            m.resize(rng.below(m.size()));
            mutants.emplace_back("truncated to " + std::to_string(m.size()),
                                 m);
        }
    }
    const std::uint64_t records = ckpt::loadLe(bytes.data() + 8, 8);
    for (unsigned k = 0; k < 64; ++k) {
        for (const std::uint64_t count :
             {std::uint64_t{1} << k, records | std::uint64_t{1} << k}) {
            std::string m = bytes;
            ckpt::storeLe(m.data() + 8, count, 8);
            mutants.emplace_back("count " + std::to_string(count), m);
        }
    }

    TempFile tmp;
    int read = 0;
    for (const auto &[label, m] : mutants) {
        {
            std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
            out << m;
        }
        try {
            TraceReader reader(tmp.path, /*wrap=*/false);
            for (std::uint64_t i = 0; i < reader.records(); ++i) {
                const isa::MicroOp op = reader.next();
                EXPECT_TRUE(validReg(op.src1) && validReg(op.src2) &&
                            validReg(op.dst))
                    << label << ": record " << i;
            }
            ++read;
        } catch (const FatalError &e) {
            // The offset must lie in the file: a decoder that reads past
            // the end can still trip over a garbage byte out there.
            const std::string msg = e.what();
            const std::size_t at = msg.find("byte offset ");
            if (at == std::string::npos)
                ADD_FAILURE() << label << ": no byte offset: " << msg;
            else
                EXPECT_LE(std::stoull(msg.substr(at + 12)), m.size())
                    << label << ": " << msg;
        }
    }
    // Some bit flips land in fields any value of which is valid.
    EXPECT_GT(read, 0);
}

// Locks the WSRSTRC1 file bytes for 64 generated gzip micro-ops; the hash
// was taken before the trace codec moved onto the shared little-endian
// helpers.
TEST(TraceIo, FileBytesAreGolden)
{
    TempFile tmp;
    {
        TraceGenerator gen(findProfile("gzip"), 0);
        TraceWriter writer(tmp.path);
        for (int i = 0; i < 64; ++i)
            writer.append(gen.next());
    }
    std::ifstream is(tmp.path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), 16u + 64 * 30);
    const std::uint64_t hash = test::fnv1a(bytes);
    EXPECT_EQ(hash, 0x86d821993be57c48ull) << std::hex << hash;
}

} // namespace
} // namespace wsrs::workload
