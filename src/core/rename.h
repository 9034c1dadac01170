/**
 * @file
 * Register renaming with write specialization (paper section 2.2).
 *
 * Supports both free-register-assignment implementations:
 *  - Impl-1 (OverPickRecycle): every cycle, up to groupWidth free registers
 *    are *staged* out of each subset free list; unassigned staged registers
 *    are returned through a recycling pipeline and are unavailable while in
 *    flight. Registers freed at commit also traverse the recycler.
 *  - Impl-2 (ExactCount): registers are popped on demand, exactly as many
 *    as the renamed group needs; commit-freed registers return directly.
 *    Costs extra front-end stages (encoded in CoreParams::frontEndDepth).
 *
 * The map table doubles as the paper's subset-tracking (f, s) bit vectors:
 * subsetOfLog(r) returns the subset of the physical register currently
 * mapped to logical register r, i.e. 2*f_r + s_r.
 */
#pragma once

#include <array>
#include <vector>

#include "src/ckpt/snapshotter.h"
#include "src/core/params.h"
#include "src/core/phys_regfile.h"
#include "src/isa/micro_op.h"

namespace wsrs::core {

/** Result of renaming one micro-op. */
struct RenamedRegs
{
    PhysReg psrc1 = kNoPhysReg;
    PhysReg psrc2 = kNoPhysReg;
    PhysReg pdst = kNoPhysReg;
    PhysReg oldPdst = kNoPhysReg;
};

/** Map table + subset-aware free-register assignment. */
class Renamer : public ckpt::Snapshotter
{
  public:
    /**
     * @param prf physical register file (owns the free lists).
     * @param impl free-register assignment implementation.
     * @param group_width micro-ops renamed per cycle (Impl-1 staging size).
     * @param recycle_delay Impl-1 recycling-pipeline depth in cycles.
     */
    Renamer(PhysRegFile &prf, RenameImpl impl, unsigned group_width,
            unsigned recycle_delay);

    /**
     * Establish the initial logical-to-physical mapping, distributing the
     * architectural registers round-robin over the subsets.
     *
     * @param init_value initial dataflow value for logical register r.
     */
    void initMapping(std::uint64_t (*init_value)(LogReg));

    /** Physical register currently holding logical register @p r. */
    PhysReg
    mapping(LogReg r) const
    {
        WSRS_ASSERT(r < isa::kNumLogRegs);
        return map_[r];
    }

    /** Subset of the mapping — the paper's (f, s) bit-vector read. */
    SubsetId subsetOfLog(LogReg r) const { return prf_.subsetOf(map_[r]); }

    /** Logical registers currently mapped into subset @p s. */
    unsigned archCount(SubsetId s) const { return archCount_[s]; }

    /**
     * True when renaming into subset @p s can never unblock: every register
     * of the subset holds architectural state (paper section 2.3).
     */
    bool
    deadlocked(SubsetId s) const
    {
        return !canAllocate(s) && archCount_[s] == prf_.subsetSize();
    }

    /// @name Per-cycle protocol.
    /// @{
    /** Drain the recycler and (Impl-1) stage this cycle's registers. */
    void beginCycle(Cycle now);

    /** A destination register is available in subset @p s this cycle. */
    bool canAllocate(SubsetId s) const;

    /**
     * Rename one micro-op whose destination goes to @p target_subset.
     * Sources are read through the (already updated) map, providing the
     * intra-group dependency propagation of the paper's Task (A).
     * @pre !op.hasDest() || canAllocate(target_subset).
     */
    RenamedRegs rename(const isa::MicroOp &op, SubsetId target_subset);

    /** (Impl-1) return unassigned staged registers to the recycler. */
    void endCycle(Cycle now);
    /// @}

    /** Free a committed instruction's previous mapping. */
    void commitFree(PhysReg old_pdst, Cycle now);

    /** Free registers usable this cycle in subset @p s (staging included). */
    unsigned available(SubsetId s) const;

    /** Registers currently held in the Impl-1 staging buffers. */
    unsigned staged() const;

    /** Checkpoint the map table and staging buffers. */
    void snapshot(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;

  private:
    template <typename Self, typename Io>
    static void transfer(Self &self, Io &io);

    PhysRegFile &prf_;
    RenameImpl impl_;
    unsigned groupWidth_;
    unsigned recycleDelay_;

    std::array<PhysReg, isa::kNumLogRegs> map_{};
    std::vector<unsigned> archCount_;
    std::vector<std::vector<PhysReg>> staged_;  ///< Impl-1 per-subset stage.
};

} // namespace wsrs::core
