/** @file Unit and property tests for the synthetic trace generator. */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/log.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"

namespace wsrs::workload {
namespace {

BenchmarkProfile
testProfile()
{
    BenchmarkProfile p;
    p.name = "test";
    p.fracLoad = 0.25;
    p.fracStore = 0.10;
    p.fracBranch = 0.12;
    p.workingSetBytes = 64 << 10;
    return p;
}

TEST(TraceGenerator, DeterministicForSameSeed)
{
    const BenchmarkProfile p = testProfile();
    TraceGenerator a(p, 42), b(p, 42);
    for (int i = 0; i < 5000; ++i) {
        const isa::MicroOp x = a.next();
        const isa::MicroOp y = b.next();
        EXPECT_EQ(x.seq, y.seq);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.src1, y.src1);
        EXPECT_EQ(x.src2, y.src2);
        EXPECT_EQ(x.dst, y.dst);
        EXPECT_EQ(x.taken, y.taken);
        EXPECT_EQ(x.effAddr, y.effAddr);
    }
}

TEST(TraceGenerator, DifferentSeedsDiverge)
{
    const BenchmarkProfile p = testProfile();
    TraceGenerator a(p, 1), b(p, 2);
    int diff = 0;
    for (int i = 0; i < 2000; ++i)
        diff += a.next().effAddr != b.next().effAddr;
    EXPECT_GT(diff, 0);
}

TEST(TraceGenerator, SequenceNumbersAreConsecutive)
{
    TraceGenerator gen(testProfile());
    for (SeqNum i = 0; i < 1000; ++i)
        EXPECT_EQ(gen.next().seq, i);
}

TEST(TraceGenerator, DynamicMixTracksProfile)
{
    BenchmarkProfile p = testProfile();
    TraceGenerator gen(p);
    std::map<isa::OpClass, unsigned> count;
    const unsigned n = 200000;
    for (unsigned i = 0; i < n; ++i)
        ++count[gen.next().op];

    const double loads = double(count[isa::OpClass::Load]) / n;
    const double stores = double(count[isa::OpClass::Store]) / n;
    const double branches = double(count[isa::OpClass::Branch]) / n;
    EXPECT_NEAR(loads, p.fracLoad, 0.05);
    EXPECT_NEAR(stores, p.fracStore, 0.04);
    EXPECT_NEAR(branches, p.fracBranch, 0.05);
}

TEST(TraceGenerator, BranchTerminatesEveryBlock)
{
    // Every static op must be reachable and each block ends in a branch:
    // walking the program, the gap between branch sites stays bounded.
    TraceGenerator gen(testProfile());
    unsigned since_branch = 0;
    for (int i = 0; i < 50000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.isBranch()) {
            since_branch = 0;
        } else {
            ++since_branch;
            ASSERT_LT(since_branch, 200u);
        }
    }
}

TEST(TraceGenerator, BranchTargetsAreValidProgramPcs)
{
    TraceGenerator gen(testProfile());
    std::set<Addr> pcs;
    for (const StaticOp &s : gen.program())
        pcs.insert(s.pc);
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.isBranch()) {
            EXPECT_TRUE(pcs.count(op.target)) << "target " << op.target;
        }
    }
}

TEST(TraceGenerator, TakenBranchRedirectsPcStream)
{
    TraceGenerator gen(testProfile());
    isa::MicroOp prev = gen.next();
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp cur = gen.next();
        if (prev.isBranch() && prev.taken) {
            EXPECT_EQ(cur.pc, prev.target);
        }
        prev = cur;
    }
}

TEST(TraceGenerator, MemoryOpsCarryAlignedAddresses)
{
    TraceGenerator gen(testProfile());
    unsigned mem_ops = 0;
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.isLoad() || op.isStore()) {
            ++mem_ops;
            EXPECT_EQ(op.effAddr % 8, 0u);
            EXPECT_NE(op.effAddr, 0u);
        }
    }
    EXPECT_GT(mem_ops, 1000u);
}

TEST(TraceGenerator, SourcesAndDestsAreValidRegisters)
{
    TraceGenerator gen(testProfile());
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.src1 != kNoLogReg) {
            EXPECT_LT(op.src1, isa::kNumLogRegs);
        }
        if (op.src2 != kNoLogReg) {
            EXPECT_LT(op.src2, isa::kNumLogRegs);
        }
        if (op.dst != kNoLogReg) {
            EXPECT_LT(op.dst, isa::kNumLogRegs);
        }
        // src2 implies src1 (operand packing convention).
        if (op.src2 != kNoLogReg) {
            EXPECT_NE(op.src1, kNoLogReg);
        }
    }
}

TEST(TraceGenerator, StoresAreDyadicWithoutDest)
{
    TraceGenerator gen(testProfile());
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.isStore()) {
            EXPECT_FALSE(op.hasDest());
            EXPECT_NE(op.src1, kNoLogReg);
            EXPECT_NE(op.src2, kNoLogReg);
        }
        if (op.isBranch()) {
            EXPECT_FALSE(op.hasDest());
        }
        if (op.isLoad()) {
            EXPECT_TRUE(op.hasDest());
        }
    }
}

TEST(Expand, IndexedStoreSplitsIntoAgenPlusStore)
{
    // Section 5.1.1: an indexed store (base + index + data) is split at
    // decode into an address-generation micro-op and a store consuming
    // its result, so no micro-op has more than two register sources.
    BenchmarkProfile p = testProfile();
    p.fracIndexedStore = 1.0;
    TraceGenerator gen(p, 7);
    const std::vector<StaticOp> &prog = gen.program();
    unsigned stores = 0;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        if (prog[i].op != isa::OpClass::Store)
            continue;
        ++stores;
        ASSERT_GT(i, 0u);
        const StaticOp &ag = prog[i - 1];
        EXPECT_EQ(ag.op, isa::OpClass::IntAlu);
        EXPECT_NE(ag.src2, kNoLogReg);
        EXPECT_EQ(prog[i].src1, ag.dst);  // consumes the agen result
    }
    EXPECT_GT(stores, 10u);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LE(gen.next().numSrcs(), 2u);
}

TEST(TraceGenerator, CommutativeOnlyOnDyadic)
{
    TraceGenerator gen(testProfile());
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.commutative) {
            EXPECT_TRUE(op.isDyadic());
        }
    }
}

TEST(TraceGenerator, LoopBranchesLoopFiniteTimes)
{
    // Any backward (loop) branch must eventually fall through, otherwise
    // the walk would never leave a segment.
    BenchmarkProfile p = testProfile();
    p.meanTripCount = 5;
    TraceGenerator gen(p);
    std::map<Addr, unsigned> consecutive_taken;
    for (int i = 0; i < 50000; ++i) {
        const isa::MicroOp op = gen.next();
        if (!op.isBranch())
            continue;
        if (op.target < op.pc) {  // backward
            if (op.taken) {
                ASSERT_LT(++consecutive_taken[op.pc], 100u);
            } else {
                consecutive_taken[op.pc] = 0;
            }
        }
    }
}

TEST(TraceGenerator, PointerChasingLinksLoadsToLoads)
{
    BenchmarkProfile p = testProfile();
    p.pointerChaseFrac = 0.9;
    p.addrInvariantFrac = 0.0;
    TraceGenerator gen(p);
    // Count loads whose address register was last written by a load.
    std::array<bool, isa::kNumLogRegs> load_wrote{};
    unsigned chased = 0, loads = 0;
    for (int i = 0; i < 50000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.isLoad()) {
            ++loads;
            if (op.src1 != kNoLogReg && load_wrote[op.src1])
                ++chased;
        }
        if (op.hasDest())
            load_wrote[op.dst] = op.isLoad();
    }
    EXPECT_GT(double(chased) / loads, 0.4);
}

TEST(TraceGenerator, InvalidProfilesAreRejected)
{
    {
        BenchmarkProfile p = testProfile();
        p.fracLoad = 0.9;
        p.fracStore = 0.9;  // mix > 1
        EXPECT_THROW(TraceGenerator g(p), FatalError);
    }
    {
        BenchmarkProfile p = testProfile();
        p.fracBranch = 0.0;
        EXPECT_THROW(TraceGenerator g(p), FatalError);
    }
    {
        BenchmarkProfile p = testProfile();
        p.numInvariantRegs = isa::kNumLogRegs;
        EXPECT_THROW(TraceGenerator g(p), FatalError);
    }
    {
        BenchmarkProfile p = testProfile();
        p.workingSetBytes = 16;
        EXPECT_THROW(TraceGenerator g(p), FatalError);
    }
    {
        BenchmarkProfile p = testProfile();
        p.numSegments = 0;
        EXPECT_THROW(TraceGenerator g(p), FatalError);
    }
}

/** Property sweep: arity fractions roughly honoured across profiles. */
class AritySweep : public ::testing::TestWithParam<double>
{
};

TEST_P(AritySweep, MonadicFractionTracksKnob)
{
    BenchmarkProfile p = testProfile();
    p.fracMonadic = GetParam();
    p.fracNoadic = 0.05;
    TraceGenerator gen(p);
    unsigned monadic = 0, alu = 0;
    for (int i = 0; i < 100000; ++i) {
        const isa::MicroOp op = gen.next();
        if (op.op != isa::OpClass::IntAlu)
            continue;
        ++alu;
        monadic += op.isMonadic();
    }
    ASSERT_GT(alu, 10000u);
    EXPECT_NEAR(double(monadic) / alu, GetParam(), 0.06);
}

INSTANTIATE_TEST_SUITE_P(Fractions, AritySweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7));

/** All 12 registered profiles construct and stream. */
class AllProfiles : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllProfiles, GeneratesCleanStream)
{
    const BenchmarkProfile &p = findProfile(GetParam());
    TraceGenerator gen(p);
    unsigned branches = 0;
    for (int i = 0; i < 20000; ++i) {
        const isa::MicroOp op = gen.next();
        branches += op.isBranch();
        if (op.src2 != kNoLogReg) {
            ASSERT_NE(op.src1, kNoLogReg);
        }
    }
    EXPECT_GT(branches, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Spec2000, AllProfiles,
    ::testing::Values("gzip", "vpr", "gcc", "mcf", "crafty", "wupwise",
                      "swim", "mgrid", "applu", "galgel", "equake",
                      "facerec"));

} // namespace
} // namespace wsrs::workload
