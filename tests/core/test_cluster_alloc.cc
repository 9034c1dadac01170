/** @file Tests for the WSRS allocation geometry and policies. */
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "src/common/log.h"
#include "src/core/cluster_alloc.h"

namespace wsrs::core {
namespace {

isa::MicroOp
dyadic(bool commutative = false)
{
    isa::MicroOp op;
    op.op = isa::OpClass::IntAlu;
    op.src1 = 1;
    op.src2 = 2;
    op.dst = 3;
    op.commutative = commutative;
    return op;
}

isa::MicroOp
monadic()
{
    isa::MicroOp op;
    op.op = isa::OpClass::IntAlu;
    op.src1 = 1;
    op.dst = 3;
    return op;
}

isa::MicroOp
noadic()
{
    isa::MicroOp op;
    op.op = isa::OpClass::IntAlu;
    op.dst = 3;
    return op;
}

CoreParams
wsrsParams(AllocPolicy policy, bool commutative_fus)
{
    CoreParams p;
    p.mode = RegFileMode::Wsrs;
    p.policy = policy;
    p.commutativeFus = commutative_fus;
    return p;
}

TEST(WsrsGeometry, ClusterFromOperandSubsets)
{
    // Figure 3: first operand picks top/bottom (bit 1), second left/right
    // (bit 0).
    EXPECT_EQ(wsrsCluster(0, 0), 0);
    EXPECT_EQ(wsrsCluster(1, 0), 0);
    EXPECT_EQ(wsrsCluster(0, 1), 1);
    EXPECT_EQ(wsrsCluster(2, 0), 2);
    EXPECT_EQ(wsrsCluster(3, 3), 3);
    EXPECT_EQ(wsrsCluster(2, 1), 3);
    EXPECT_EQ(wsrsCluster(1, 2), 0);
}

TEST(WsrsGeometry, PaperExampleClusterC1ReadsS0S1First)
{
    // "The first operand of an instruction executed on cluster C1 is read
    // from a physical register belonging to subset S0 or to subset S1."
    for (SubsetId s1 = 0; s1 < 4; ++s1) {
        for (SubsetId s2 = 0; s2 < 4; ++s2) {
            if (wsrsCluster(s1, s2) == 1) {
                EXPECT_TRUE(s1 == 0 || s1 == 1);
            }
        }
    }
}

TEST(WsrsOptions, DyadicNonCommutativeHasOneOption)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomMonadic, false));
    AllocContext ctx;
    ctx.src1Subset = 2;
    ctx.src2Subset = 1;
    unsigned count = 0;
    const auto opts = alloc.wsrsOptions(dyadic(false), ctx, count);
    ASSERT_EQ(count, 1u);
    EXPECT_EQ(opts[0].cluster, 3);
    EXPECT_FALSE(opts[0].swapped);
}

TEST(WsrsOptions, CommutativeDyadicDifferentSubsetsHasTwoOptions)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomCommutative,
                                      true));
    AllocContext ctx;
    ctx.src1Subset = 2;
    ctx.src2Subset = 1;
    unsigned count = 0;
    const auto opts = alloc.wsrsOptions(dyadic(true), ctx, count);
    ASSERT_EQ(count, 2u);
    EXPECT_EQ(opts[0].cluster, 3);  // (2,1) no swap
    EXPECT_EQ(opts[1].cluster, 0);  // (1,2) swapped
    EXPECT_TRUE(opts[1].swapped);
}

TEST(WsrsOptions, CommutativeDyadicSameSubsetHasOneOption)
{
    // Paper 3.3: commutativity helps only when the operands lie in
    // different subsets.
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomCommutative,
                                      true));
    AllocContext ctx;
    ctx.src1Subset = 3;
    ctx.src2Subset = 3;
    unsigned count = 0;
    const auto opts = alloc.wsrsOptions(dyadic(true), ctx, count);
    ASSERT_EQ(count, 1u);
    EXPECT_EQ(opts[0].cluster, 3);
}

TEST(WsrsOptions, MonadicHasTwoOrThreeOptions)
{
    // Two clusters without commutative FUs; three with (paper 3.3).
    {
        ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomMonadic,
                                          false));
        AllocContext ctx;
        ctx.src1Subset = 2;
        unsigned count = 0;
        const auto opts = alloc.wsrsOptions(monadic(), ctx, count);
        ASSERT_EQ(count, 2u);
        EXPECT_EQ(opts[0].cluster, 2);
        EXPECT_EQ(opts[1].cluster, 3);
    }
    {
        ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomCommutative,
                                          true));
        AllocContext ctx;
        ctx.src1Subset = 2;
        unsigned count = 0;
        const auto opts = alloc.wsrsOptions(monadic(), ctx, count);
        ASSERT_EQ(count, 3u);
        std::set<ClusterId> clusters;
        for (unsigned i = 0; i < count; ++i)
            clusters.insert(opts[i].cluster);
        // Operand in S2 (f=1,g=0): first-port form -> {C2, C3};
        // second-port form -> {C0, C2}; union = {C0, C2, C3}.
        EXPECT_EQ(clusters, (std::set<ClusterId>{0, 2, 3}));
        EXPECT_TRUE(opts[2].swapped);
    }
}

TEST(WsrsOptions, NoadicCanGoAnywhere)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomCommutative,
                                      true));
    AllocContext ctx;
    unsigned count = 0;
    alloc.wsrsOptions(noadic(), ctx, count);
    EXPECT_EQ(count, 4u);
}

TEST(Policies, RmNeverSwapsAndPinsDyadic)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomMonadic, false));
    AllocContext ctx;
    ctx.src1Subset = 1;
    ctx.src2Subset = 2;
    for (int i = 0; i < 100; ++i) {
        const AllocDecision d = alloc.allocate(dyadic(true), ctx);
        EXPECT_EQ(d.cluster, wsrsCluster(1, 2));
        EXPECT_FALSE(d.swapped);
    }
}

TEST(Policies, RmMonadicUsesBothLeftRightClusters)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomMonadic, false));
    AllocContext ctx;
    ctx.src1Subset = 0;
    std::set<ClusterId> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(alloc.allocate(monadic(), ctx).cluster);
    EXPECT_EQ(seen, (std::set<ClusterId>{0, 1}));
}

TEST(Policies, RcMonadicReachesThreeClusters)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomCommutative,
                                      true));
    AllocContext ctx;
    ctx.src1Subset = 0;
    std::set<ClusterId> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(alloc.allocate(monadic(), ctx).cluster);
    // S0 (f=0,g=0): first-port {C0,C1}, second-port {C0,C2}.
    EXPECT_EQ(seen, (std::set<ClusterId>{0, 1, 2}));
}

TEST(Policies, RcUsesBothDyadicForms)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomCommutative,
                                      true));
    AllocContext ctx;
    ctx.src1Subset = 0;
    ctx.src2Subset = 3;
    std::set<ClusterId> seen;
    unsigned swaps = 0;
    for (int i = 0; i < 500; ++i) {
        const AllocDecision d = alloc.allocate(dyadic(false), ctx);
        seen.insert(d.cluster);
        swaps += d.swapped;
    }
    EXPECT_EQ(seen, (std::set<ClusterId>{wsrsCluster(0, 3),
                                         wsrsCluster(3, 0)}));
    EXPECT_GT(swaps, 150u);
    EXPECT_LT(swaps, 350u);
}

TEST(Policies, WindowAwareFilteringAvoidsFullClusters)
{
    ClusterAllocator alloc(wsrsParams(AllocPolicy::RandomCommutative,
                                      true));
    std::array<unsigned, kMaxClusters> inflight{};
    AllocContext ctx;
    ctx.inflight = &inflight;
    ctx.src1Subset = 0;
    // Fill cluster 0; monadic op on S0 must avoid it.
    inflight[0] = CoreParams{}.clusterWindow;
    for (int i = 0; i < 200; ++i)
        EXPECT_NE(alloc.allocate(monadic(), ctx).cluster, 0);
}

TEST(Policies, RoundRobinCyclesClustersOnConventional)
{
    CoreParams p;
    p.mode = RegFileMode::Conventional;
    p.policy = AllocPolicy::RoundRobin;
    ClusterAllocator alloc(p);
    AllocContext ctx;
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(alloc.allocate(dyadic(), ctx).cluster, i % 4);
}

TEST(Policies, DependenceAwareFollowsProducer)
{
    CoreParams p;
    p.mode = RegFileMode::Conventional;
    p.policy = AllocPolicy::DependenceAware;
    ClusterAllocator alloc(p);
    std::array<unsigned, kMaxClusters> inflight{};
    AllocContext ctx;
    ctx.inflight = &inflight;
    ctx.src1Producer = 2;
    EXPECT_EQ(alloc.allocate(dyadic(), ctx).cluster, 2);
    // Full producer cluster falls back to least loaded.
    inflight[2] = p.clusterWindow;
    inflight[0] = 5;
    inflight[1] = 3;
    inflight[3] = 9;
    EXPECT_EQ(alloc.allocate(dyadic(), ctx).cluster, 1);
}

TEST(Policies, DependenceAwareWsrsPrefersProducerAmongLegal)
{
    CoreParams p = wsrsParams(AllocPolicy::DependenceAware, true);
    ClusterAllocator alloc(p);
    std::array<unsigned, kMaxClusters> inflight{};
    AllocContext ctx;
    ctx.inflight = &inflight;
    ctx.src1Subset = 0;   // monadic options {0,1} + swapped {2}
    ctx.src1Producer = 1;
    EXPECT_EQ(alloc.allocate(monadic(), ctx).cluster, 1);
}

TEST(ClusterAllocator, WsrsRequiresFourClusters)
{
    CoreParams p = wsrsParams(AllocPolicy::RandomCommutative, true);
    p.numClusters = 2;
    EXPECT_THROW(ClusterAllocator a(p), FatalError);
}

/** Geometry sweep: write specialization consistency for every pair. */
class SubsetPairSweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(SubsetPairSweep, ReadSpecializationInvariantHolds)
{
    const auto [s1, s2] = GetParam();
    const ClusterId c = wsrsCluster(SubsetId(s1), SubsetId(s2));
    // First operand's subset shares the cluster's top/bottom bit; second
    // operand's subset shares the left/right bit.
    EXPECT_EQ(s1 & 2u, unsigned(c & 2));
    EXPECT_EQ(s2 & 1u, unsigned(c & 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SubsetPairSweep,
    ::testing::Values(std::pair{0u, 0u}, std::pair{0u, 1u},
                      std::pair{0u, 2u}, std::pair{0u, 3u},
                      std::pair{1u, 0u}, std::pair{1u, 3u},
                      std::pair{2u, 0u}, std::pair{2u, 2u},
                      std::pair{3u, 1u}, std::pair{3u, 3u}));

} // namespace
} // namespace wsrs::core
