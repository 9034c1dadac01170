/**
 * @file
 * Instruction-to-cluster allocation policies (paper sections 3.2, 3.3, 5.2).
 *
 * WSRS geometry (Figure 3): cluster c = top/bottom bit (c >> 1) and
 * left/right bit (c & 1); subset s = (f, g) bits. An instruction executing
 * on cluster c reads its first operand from a subset with f == c>>1 and its
 * second operand from a subset with g == c&1, and writes subset c. Hence
 * for a dyadic micro-op with operand subsets (s1, s2):
 *
 *     cluster = (s1 & 2) | (s2 & 1)
 *
 * Degrees of freedom:
 *  - monadic ops: operand on the first port -> 2 clusters (left/right
 *    free); with commutative FUs also on the second port -> 3 clusters;
 *  - dyadic ops with operands in different subsets: swapping the operands
 *    (commutative instructions, or any instruction on commutative FUs)
 *    offers a second cluster;
 *  - noadic ops: any cluster.
 */
#pragma once

#include <array>

#include "src/ckpt/snapshotter.h"
#include "src/common/rng.h"
#include "src/core/params.h"
#include "src/isa/micro_op.h"

namespace wsrs::core {

/** Maximum clusters supported by the static arrays below. */
inline constexpr unsigned kMaxClusters = 8;

/** Outcome of a cluster-allocation decision. */
struct AllocDecision
{
    ClusterId cluster = 0;
    /**
     * The micro-op's single operand is read on the second port, or a dyadic
     * micro-op's operands are physically exchanged.
     */
    bool swapped = false;
};

/** WSRS cluster implied by operand subsets in (first, second) port order. */
constexpr ClusterId
wsrsCluster(SubsetId first_subset, SubsetId second_subset)
{
    return static_cast<ClusterId>((first_subset & 2) |
                                  (second_subset & 1));
}

/** Number of functional-unit pools under Figure-2b write specialization. */
inline constexpr unsigned kNumFuPools = 4;

/**
 * Register subset written by a micro-op under pool-level write
 * specialization (paper Figure 2b): distinct pools of identical
 * functional units — load/store units, simple ALUs, complex units, FP
 * units — write distinct register subsets regardless of the executing
 * cluster.
 */
constexpr SubsetId
poolSubsetOf(isa::OpClass cls)
{
    if (isa::isMemOp(cls))
        return 0;
    if (cls == isa::OpClass::IntAlu || cls == isa::OpClass::Branch)
        return 1;
    if (isa::isComplexIntOp(cls))
        return 2;
    return 3;  // Floating-point pool.
}

/** Per-micro-op allocation context handed to the policy. */
struct AllocContext
{
    SubsetId src1Subset = 0;   ///< Valid when op.src1 present.
    SubsetId src2Subset = 0;   ///< Valid when op.src2 present.
    /** In-flight micro-ops per cluster (DependenceAware balancing). */
    const std::array<unsigned, kMaxClusters> *inflight = nullptr;
    /** Producing cluster of each operand, kMaxClusters if retired. */
    ClusterId src1Producer = kMaxClusters;
    ClusterId src2Producer = kMaxClusters;
};

/** Stateful allocator implementing all policies of CoreParams. */
class ClusterAllocator : public ckpt::Snapshotter
{
  public:
    explicit ClusterAllocator(const CoreParams &params);

    /** Decide the execution cluster for one micro-op. */
    AllocDecision allocate(const isa::MicroOp &op, const AllocContext &ctx);

    /**
     * All (cluster, swapped) options legal for this micro-op on a WSRS
     * machine; used by the policies, the deadlock workaround and tests.
     *
     * The option set depends only on (arity, swap permission, operand
     * subsets), so for the 4-subset WSRS geometry every possible set is
     * interned into a 96-entry table at construction and this is a single
     * indexed load instead of a per-micro-op re-derivation.
     */
    std::array<AllocDecision, 4>
    wsrsOptions(const isa::MicroOp &op, const AllocContext &ctx,
                unsigned &count) const
    {
        if ((ctx.src1Subset | ctx.src2Subset) < 4) {
            const bool can_swap = params_.commutativeFus || op.commutative;
            const OptionSet &e =
                wsrsTable_[tableKey(op.numSrcs(), can_swap, ctx.src1Subset,
                                    ctx.src2Subset)];
            count = e.count;
            return e.opts;
        }
        // Exotic geometry (>4 subsets in tests): derive directly.
        return computeWsrsOptions(op, ctx, count);
    }

    /** Everything one allocate() call may advance. */
    struct Draws
    {
        XorShiftRng rng;
        unsigned rrCounter;
    };
    Draws draws() const { return {rng_, rrCounter_}; }
    void setDraws(const Draws &d)
    {
        rng_ = d.rng;
        rrCounter_ = d.rrCounter;
    }

    void snapshot(ckpt::Writer &w) const override { transfer(*this, w); }
    void restore(ckpt::Reader &r) override { transfer(*this, r); }

  private:
    template <typename Self, typename Io>
    static void
    transfer(Self &self, Io &io)
    {
        ckpt::rng(io, self.rng_);
        io.u32(self.rrCounter_);
    }

    AllocDecision allocateWsrs(const isa::MicroOp &op,
                               const AllocContext &ctx);
    AllocDecision allocateUnconstrained(const isa::MicroOp &op,
                                        const AllocContext &ctx);

    /** The defining derivation interned by the constructor. */
    std::array<AllocDecision, 4> computeWsrsOptions(const isa::MicroOp &op,
                                                    const AllocContext &ctx,
                                                    unsigned &count) const;

    /** One interned legal-placement set. */
    struct OptionSet
    {
        std::array<AllocDecision, 4> opts{};
        std::uint8_t count = 0;
    };

    static constexpr std::size_t
    tableKey(unsigned arity, bool can_swap, SubsetId s1, SubsetId s2)
    {
        return ((arity * 2 + (can_swap ? 1 : 0)) * 4 + (s1 & 3)) * 4 +
               (s2 & 3);
    }

    CoreParams params_;
    XorShiftRng rng_;
    unsigned rrCounter_ = 0;
    std::array<OptionSet, 96> wsrsTable_{};  ///< arity x swap x s1 x s2.
};

} // namespace wsrs::core
