/**
 * @file
 * Physical register file state: values, subset partitioning, per-subset
 * free lists, and the Impl-1 free-register recycling pipeline.
 *
 * The register space [0, numRegs) is statically partitioned into numSubsets
 * equal subsets; subset s owns [s*size, (s+1)*size). With write
 * specialization, cluster c allocates destinations only from subset c.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/common/log.h"
#include "src/common/types.h"

namespace wsrs::core {

/** Physical register state and free-list management. */
class PhysRegFile : public ckpt::Snapshotter
{
  public:
    /**
     * @param num_regs total physical registers.
     * @param num_subsets equal partitions (1 for a conventional machine).
     */
    PhysRegFile(unsigned num_regs, unsigned num_subsets);

    unsigned numRegs() const { return static_cast<unsigned>(values_.size()); }
    unsigned numSubsets() const { return numSubsets_; }
    unsigned subsetSize() const { return subsetSize_; }

    /**
     * Subset owning a register. A precomputed per-register table: this is
     * queried for every operand of every renamed and issued micro-op, and
     * (unlike the defining division) a byte load stays cheap even inside
     * the always-on WSRS_ASSERT constraint checks.
     */
    SubsetId
    subsetOf(PhysReg p) const
    {
        WSRS_ASSERT(p < values_.size());
        return subsetOf_[p];
    }

    /// @name Free-list operations.
    /// @{
    unsigned
    numFree(SubsetId s) const
    {
        return static_cast<unsigned>(freeLists_[s].size());
    }

    /** Pop one free register from subset @p s. @pre numFree(s) > 0. */
    PhysReg allocate(SubsetId s);

    /** Return a register directly to its subset's free list. */
    void release(PhysReg p);

    /**
     * Return a register through the Impl-1 recycling pipeline; it becomes
     * allocatable only once drainRecycler has been called with a cycle
     * >= @p available_at.
     */
    void releaseDeferred(PhysReg p, Cycle available_at);

    /** Move matured recycler entries onto the free lists. */
    void drainRecycler(Cycle now);

    /** Registers currently inside the recycling pipeline. */
    unsigned
    inRecycler() const
    {
        return static_cast<unsigned>(recyclerSize_);
    }
    /// @}

    /// @name Register values (dataflow-hash contents).
    /// @{
    std::uint64_t
    value(PhysReg p) const
    {
        WSRS_ASSERT(p < values_.size());
        return values_[p];
    }

    void
    setValue(PhysReg p, std::uint64_t v)
    {
        WSRS_ASSERT(p < values_.size());
        values_[p] = v;
    }
    /// @}

    /** Checkpoint values, free lists and the recycling pipeline. */
    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    unsigned numSubsets_;
    unsigned subsetSize_;
    std::vector<std::uint64_t> values_;
    std::vector<SubsetId> subsetOf_;    ///< p -> p / subsetSize_, interned.
    std::vector<std::vector<PhysReg>> freeLists_;

    struct RecycleEntry
    {
        Cycle availableAt;
        PhysReg reg;
    };
    // Fixed-capacity FIFO ring ordered by availableAt. A register is in
    // the pipeline at most once, so a power-of-two capacity >= numRegs + 1
    // can never overflow and push/pop are mask-and-store.
    std::vector<RecycleEntry> recycler_;
    std::size_t recyclerMask_ = 0;
    std::size_t recyclerHead_ = 0;
    std::size_t recyclerSize_ = 0;
};

} // namespace wsrs::core
