/** @file Tests for subset-aware register renaming (paper section 2.2). */
#include <gtest/gtest.h>

#include "src/ckpt/io.h"
#include "src/core/rename.h"
#include "src/workload/dataflow.h"

namespace wsrs::core {
namespace {

isa::MicroOp
aluOp(LogReg s1, LogReg s2, LogReg d)
{
    isa::MicroOp op;
    op.op = isa::OpClass::IntAlu;
    op.src1 = s1;
    op.src2 = s2;
    op.dst = d;
    return op;
}

TEST(Renamer, InitialMappingDistributesOverSubsets)
{
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);
    // 80 logical registers round-robin over 4 subsets: 20 each.
    for (SubsetId s = 0; s < 4; ++s)
        EXPECT_EQ(renamer.archCount(s), 20u);
    for (unsigned r = 0; r < isa::kNumLogRegs; ++r) {
        EXPECT_EQ(renamer.subsetOfLog(LogReg(r)), r % 4);
        EXPECT_EQ(prf.value(renamer.mapping(LogReg(r))),
                  workload::initRegValue(LogReg(r)));
    }
}

TEST(Renamer, RenameUpdatesMapAndReturnsOldMapping)
{
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    const PhysReg old5 = renamer.mapping(5);
    renamer.beginCycle(0);
    const RenamedRegs rr = renamer.rename(aluOp(3, 4, 5), 2);
    renamer.endCycle(0);

    EXPECT_EQ(rr.psrc1, renamer.mapping(3));
    EXPECT_EQ(rr.psrc2, renamer.mapping(4));
    EXPECT_EQ(rr.oldPdst, old5);
    EXPECT_EQ(renamer.mapping(5), rr.pdst);
    EXPECT_EQ(prf.subsetOf(rr.pdst), 2);
    EXPECT_EQ(renamer.subsetOfLog(5), 2);
}

TEST(Renamer, IntraGroupDependencyPropagation)
{
    // Task (A): the second op of a group reading the first op's dest must
    // see the *new* physical register.
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    renamer.beginCycle(0);
    const RenamedRegs first = renamer.rename(aluOp(1, 2, 9), 0);
    const RenamedRegs second = renamer.rename(aluOp(9, 3, 10), 1);
    renamer.endCycle(0);
    EXPECT_EQ(second.psrc1, first.pdst);
}

TEST(Renamer, ArchCountTracksSubsetMigration)
{
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    // Logical reg 0 starts in subset 0; rename it into subset 3.
    renamer.beginCycle(0);
    renamer.rename(aluOp(1, 2, 0), 3);
    renamer.endCycle(0);
    EXPECT_EQ(renamer.archCount(0), 19u);
    EXPECT_EQ(renamer.archCount(3), 21u);
}

// The per-subset counts are not checkpointed: a restore rebuilds them
// from the loaded map, over whatever counts the target held before.
TEST(Renamer, RestoreRebuildsArchCountsFromTheMap)
{
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);
    renamer.beginCycle(0);
    for (LogReg r = 0; r < 6; ++r)
        renamer.rename(aluOp(1, 2, r), 3);
    renamer.endCycle(0);
    ckpt::Writer w;
    renamer.snapshot(w);

    PhysRegFile prf2(512, 4);
    Renamer back(prf2, RenameImpl::ExactCount, 8, 4);
    back.initMapping(&workload::initRegValue);
    ckpt::Reader r(w.buffer(), "<renamer>");
    back.restore(r);
    EXPECT_TRUE(r.atEnd());
    for (SubsetId s = 0; s < 4; ++s)
        EXPECT_EQ(back.archCount(s), renamer.archCount(s)) << "subset " << s;
    EXPECT_EQ(back.archCount(3), 25u);  // logical 3 was already there
}

TEST(Renamer, ExactCountConsumesOneRegisterPerRename)
{
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    const unsigned before = prf.numFree(1);
    renamer.beginCycle(0);
    renamer.rename(aluOp(1, 2, 7), 1);
    renamer.endCycle(0);
    EXPECT_EQ(prf.numFree(1), before - 1);
}

TEST(Renamer, OverPickStagesGroupWidthFromEverySubset)
{
    // Impl-1 (paper 2.2.1): N registers picked from every free list each
    // cycle; the unused ones recycle and are unavailable for the
    // recycling-pipeline depth.
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::OverPickRecycle, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    const unsigned free1 = prf.numFree(1);
    renamer.beginCycle(0);
    renamer.rename(aluOp(1, 2, 7), 1);  // one register actually used
    renamer.endCycle(0);
    // 8 were staged, 1 consumed, 7 recycling: none back yet.
    EXPECT_EQ(prf.numFree(1), free1 - 8);
    EXPECT_EQ(prf.inRecycler(), 7u + 8u * 3);  // 7 + full stages of others

    renamer.beginCycle(4);  // recycleDelay elapsed -> recycled regs usable
    renamer.endCycle(4);
    // All staged regs from cycle 4 are returned at end; after drain at
    // cycle 8 everything except the consumed register is free again.
    renamer.beginCycle(8);
    renamer.endCycle(8);
    prf.drainRecycler(8);
    unsigned total_free = 0;
    for (SubsetId s = 0; s < 4; ++s)
        total_free += prf.numFree(s);
    EXPECT_EQ(total_free + prf.inRecycler() + 80 + 1, 512u);
}

TEST(Renamer, OverPickCommitFreeGoesThroughRecycler)
{
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::OverPickRecycle, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    renamer.beginCycle(0);
    const RenamedRegs rr = renamer.rename(aluOp(1, 2, 7), 1);
    renamer.endCycle(0);
    const SubsetId s = prf.subsetOf(rr.oldPdst);
    renamer.commitFree(rr.oldPdst, 10);  // matures at 10 + recycleDelay
    prf.drainRecycler(13);
    const unsigned free_at_13 = prf.numFree(s);
    prf.drainRecycler(14);
    EXPECT_EQ(prf.numFree(s), free_at_13 + 1);
}

TEST(Renamer, ExactCountCommitFreeIsImmediate)
{
    PhysRegFile prf(512, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    renamer.beginCycle(0);
    const RenamedRegs rr = renamer.rename(aluOp(1, 2, 7), 1);
    renamer.endCycle(0);
    const SubsetId s = prf.subsetOf(rr.oldPdst);
    const unsigned before = prf.numFree(s);
    renamer.commitFree(rr.oldPdst, 10);
    EXPECT_EQ(prf.numFree(s), before + 1);
}

TEST(Renamer, DeadlockDetectedWhenSubsetFullyArchitectural)
{
    // Subset smaller than the logical register count (paper 2.3): rename
    // enough logical registers into subset 0 to make every register there
    // architectural.
    PhysRegFile prf(96, 4);  // 24 per subset < 80 logical
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);
    EXPECT_EQ(renamer.archCount(0), 20u);
    EXPECT_EQ(prf.numFree(0), 4u);

    // Four renames into subset 0; committing each frees the old mapping
    // from *other* subsets (dst regs currently mapped elsewhere).
    renamer.beginCycle(0);
    for (const LogReg d : {LogReg(1), LogReg(2), LogReg(3), LogReg(5)}) {
        const RenamedRegs rr = renamer.rename(aluOp(8, 9, d), 0);
        renamer.commitFree(rr.oldPdst, 0);
    }
    renamer.endCycle(0);

    EXPECT_EQ(renamer.archCount(0), 24u);
    EXPECT_EQ(prf.numFree(0), 0u);
    EXPECT_TRUE(renamer.deadlocked(0));
    EXPECT_FALSE(renamer.deadlocked(1));
}

TEST(Renamer, NotDeadlockedWhileRegistersInFlight)
{
    PhysRegFile prf(96, 4);
    Renamer renamer(prf, RenameImpl::ExactCount, 8, 4);
    renamer.initMapping(&workload::initRegValue);

    // Renaming a register whose old mapping was itself in subset 0 keeps
    // that old register in flight (freed only at commit), so the subset is
    // not fully architectural even with an empty free list.
    renamer.beginCycle(0);
    renamer.rename(aluOp(8, 9, 0), 0);  // log 0 was already in subset 0
    renamer.rename(aluOp(8, 9, 1), 0);
    renamer.rename(aluOp(8, 9, 2), 0);
    renamer.rename(aluOp(8, 9, 3), 0);
    renamer.endCycle(0);
    EXPECT_EQ(prf.numFree(0), 0u);
    EXPECT_FALSE(renamer.deadlocked(0));  // old log-0 mapping in flight
}

TEST(Renamer, RejectsTooFewPhysicalRegisters)
{
    PhysRegFile prf(64, 4);  // 64 < 80 logical registers
    EXPECT_THROW(Renamer r(prf, RenameImpl::ExactCount, 8, 4), FatalError);
}

} // namespace
} // namespace wsrs::core
