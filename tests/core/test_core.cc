/** @file End-to-end tests of the execution core on live traces. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <sstream>

#include "src/bpred/two_bc_gskew.h"
#include "src/workload/trace_generator.h"
#include "src/core/core.h"
#include "src/obs/trace_sink.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

namespace wsrs::core {
namespace {

/** Everything a Core needs, bundled for tests. */
struct Rig
{
    explicit Rig(const CoreParams &params,
                 const std::string &bench = "gzip",
                 const memory::HierarchyParams &mem_params = {})
        : gen(workload::findProfile(bench), 7), stats("test"),
          mem(mem_params, stats),
          core(params, gen, bp, mem)
    {
    }

    workload::TraceGenerator gen;
    bpred::TwoBcGskew bp;
    StatGroup stats;
    memory::MemoryHierarchy mem;
    Core core;
};

CoreParams
verified(CoreParams p)
{
    p.verifyDataflow = true;
    return p;
}

/** Rename-stall cycles for want of a free register. */
std::uint64_t
freeRegStalls(const Core &core)
{
    return obs::groupRenameStalls(core.pipeStats().renameStall()).freeReg;
}

TEST(Core, ConventionalRunsAndVerifiesDataflow)
{
    Rig rig(verified(sim::presetConventional(256)));
    rig.core.run(30000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
    EXPECT_GE(rig.core.stats().committed, 30000u);
    EXPECT_GT(rig.core.stats().ipc(), 0.3);
    EXPECT_LT(rig.core.stats().ipc(), 8.0);
}

TEST(Core, WriteSpecializationVerifies)
{
    Rig rig(verified(sim::presetWriteSpec(384)));
    rig.core.run(30000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, WsrsRcVerifies)
{
    Rig rig(verified(sim::presetWsrsRc(512)));
    rig.core.run(30000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, WsrsRmVerifies)
{
    Rig rig(verified(sim::presetWsrsRm(512)));
    rig.core.run(30000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, WsrsDependenceAwareVerifies)
{
    Rig rig(verified(sim::presetWsrsDepAware(512)));
    rig.core.run(30000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, BothRenamingImplementationsVerify)
{
    for (const RenameImpl impl :
         {RenameImpl::OverPickRecycle, RenameImpl::ExactCount}) {
        CoreParams p = verified(sim::presetWsrsRc(384, impl));
        Rig rig(p);
        rig.core.run(20000);
        EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
    }
}

TEST(Core, AllFastForwardScopesVerify)
{
    for (const FastForwardScope scope :
         {FastForwardScope::IntraCluster, FastForwardScope::AdjacentPair,
          FastForwardScope::Complete}) {
        CoreParams p = verified(sim::presetWsrsRc(512));
        p.ffScope = scope;
        Rig rig(p);
        rig.core.run(20000);
        EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
    }
}

TEST(Core, WiderFastForwardNeverHurts)
{
    double ipc_intra, ipc_complete;
    {
        CoreParams p = sim::presetConventional(256);
        p.ffScope = FastForwardScope::IntraCluster;
        Rig rig(p, "crafty");
        rig.core.run(40000);
        ipc_intra = rig.core.stats().ipc();
    }
    {
        CoreParams p = sim::presetConventional(256);
        p.ffScope = FastForwardScope::Complete;
        Rig rig(p, "crafty");
        rig.core.run(40000);
        ipc_complete = rig.core.stats().ipc();
    }
    EXPECT_GE(ipc_complete, ipc_intra * 0.999);
}

TEST(Core, SharedComplexUnitVerifiesAndMayCost)
{
    CoreParams p = verified(sim::presetWsrsRc(512));
    p.sharedComplexUnit = true;
    Rig rig(p);
    rig.core.run(20000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, TinySubsetsDeadlockWorkaroundMakesProgress)
{
    // 256 regs over 4 subsets = 64 < 80 logical registers per subset:
    // subsets can fill with architectural state (paper 2.3); the
    // move-injection workaround must keep the machine live.
    CoreParams p = verified(sim::presetWsrsRc(256));
    Rig rig(p, "crafty");
    rig.core.run(60000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
    EXPECT_GE(rig.core.stats().committed, 60000u);
}

TEST(Core, WriteSpecTinySubsetsAlsoProgress)
{
    CoreParams p = verified(sim::presetWriteSpec(256));
    Rig rig(p, "gcc");
    rig.core.run(60000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, WritebackCapThrottlesThroughput)
{
    double ipc_wide, ipc_narrow;
    {
        CoreParams p = sim::presetConventional(256);
        p.writebackPerCluster = 3;
        Rig rig(p, "mgrid");
        rig.core.run(40000);
        ipc_wide = rig.core.stats().ipc();
    }
    {
        CoreParams p = sim::presetConventional(256);
        p.writebackPerCluster = 1;
        Rig rig(p, "mgrid");
        rig.core.run(40000);
        ipc_narrow = rig.core.stats().ipc();
    }
    EXPECT_LT(ipc_narrow, ipc_wide);
}

/** Counts results written back per (cluster, cycle). */
class WritebackCounter : public obs::TraceSink
{
  public:
    void
    record(const obs::UopTrace &t) override
    {
        if (t.dstSubset != 0xff)
            ++perCycle_[{t.cluster, t.completeCycle}];
    }

    unsigned
    busiest() const
    {
        unsigned most = 0;
        for (const auto &[key, n] : perCycle_)
            most = std::max(most, n);
        return most;
    }

  private:
    std::map<std::pair<ClusterId, Cycle>, unsigned> perCycle_;
};

// A miss penalty past the 1024-cycle write-back ring must not drop the
// reservations it shares ring slots with: no cluster may write back more
// results in one cycle than it has ports.
TEST(Core, WritebackReservationsPastTheRingAreKept)
{
    for (const Cycle penalty : {Cycle{1000}, Cycle{1500}}) {
        memory::HierarchyParams mp;
        mp.l2MissPenalty = penalty;
        // One port per cluster: any dropped reservation double-books it.
        CoreParams p = sim::presetWsrsRc(512);
        p.writebackPerCluster = 1;
        Rig rig(p, "mcf", mp);
        WritebackCounter wb;
        rig.core.attachTraceSink(&wb);
        rig.core.run(80000);
        EXPECT_LE(wb.busiest(), p.writebackPerCluster)
            << "l2MissPenalty " << penalty;
    }
}

// After @p lead committed micro-ops, save every @p step, @p points times,
// in a run whose window is full of micro-ops waiting on memory (so the
// wake-up lists are long): each snapshot must restore and save back byte
// for byte, and a fresh machine restored from it must finish the run in
// exactly the uninterrupted run's state.
void
expectSnapshotsRestoreAndContinue(const CoreParams &p,
                                  const memory::HierarchyParams &mp,
                                  std::uint64_t lead, int points,
                                  std::uint64_t step)
{
    struct Saved
    {
        ckpt::Writer gen, bp, mem, core;
    };
    std::vector<Saved> saved(points);
    Rig clean(p, "mcf", mp);
    clean.core.run(lead);
    for (Saved &s : saved) {
        clean.core.run(step);
        clean.gen.snapshot(s.gen);
        clean.bp.snapshot(s.bp);
        clean.mem.snapshot(s.mem);
        clean.core.snapshot(s.core);
    }
    clean.core.run(step);
    ckpt::Writer end;
    clean.core.snapshot(end);

    for (int k = 0; k < points; ++k) {
        const Saved &s = saved[k];
        Rig copy(p, "mcf", mp);
        ckpt::Reader gr(s.gen.buffer(), "<gen>"), br(s.bp.buffer(), "<bp>"),
            mr(s.mem.buffer(), "<mem>"), cr(s.core.buffer(), "<core>");
        copy.gen.restore(gr);
        copy.bp.restore(br);
        copy.mem.restore(mr);
        copy.core.restore(cr);
        ckpt::Writer again;
        copy.core.snapshot(again);
        ASSERT_EQ(again.buffer(), s.core.buffer()) << "point " << k;
        for (int rest = k + 1; rest <= points; ++rest)
            copy.core.run(step);
        EXPECT_EQ(copy.core.stats().cycles, clean.core.stats().cycles)
            << "point " << k;
        ckpt::Writer last;
        copy.core.snapshot(last);
        EXPECT_EQ(last.buffer(), end.buffer()) << "point " << k;
    }
}

TEST(Core, SnapshotsAtThirtyPointsRestoreAndContinueExactly)
{
    expectSnapshotsRestoreAndContinue(sim::presetWsrsRc(512),
                                      sim::findMemPreset("dram"), 0, 30, 700);
    // A 1500-cycle miss keeps write-back reservations past the 1024-cycle
    // ring for a few hundred cycles after it issues, and with one port per
    // cluster a restore that lost one would double-book it.
    CoreParams one_port = sim::presetWsrsRc(512);
    one_port.writebackPerCluster = 1;
    memory::HierarchyParams slow;
    slow.l2MissPenalty = 1500;
    expectSnapshotsRestoreAndContinue(one_port, slow, 0, 60, 50);
}

/** Every committed micro-op's issue, write-back and commit cycles. */
class CycleLog : public obs::TraceSink
{
  public:
    void
    record(const obs::UopTrace &t) override
    {
        rows.push_back({t.seq, t.issueCycle, t.completeCycle, t.commitCycle});
    }

    std::vector<std::array<std::uint64_t, 4>> rows;
};

// Reservations past the write-back ring (a 1500-cycle miss) are core
// state: a restore that lost them would hand their ports, one per
// cluster, to later results. Each save point that holds some must restore
// into a run that matches the uninterrupted one cycle for cycle: the same
// committed micro-ops at the same cycles, and the same machine state
// after every step (a lost reservation shows in the state until its cycle
// passes, even where no later result would have competed for its port).
TEST(Core, RestoredRunKeepsWritebackReservationsPastTheRing)
{
    CoreParams p = sim::presetWsrsRc(512);
    p.writebackPerCluster = 1;
    memory::HierarchyParams slow;
    slow.l2MissPenalty = 1500;
    int checked = 0;
    for (std::uint64_t lead = 200; lead <= 4000; lead += 200) {
        Rig clean(p, "mcf", slow);
        clean.core.run(lead);
        if (clean.core.writebackOverflow() == 0)
            continue;
        ++checked;
        ckpt::Writer gen, bp, mem, core;
        clean.gen.snapshot(gen);
        clean.bp.snapshot(bp);
        clean.mem.snapshot(mem);
        clean.core.snapshot(core);
        Rig copy(p, "mcf", slow);
        ckpt::Reader gr(gen.buffer(), "<gen>"), br(bp.buffer(), "<bp>"),
            mr(mem.buffer(), "<mem>"), cr(core.buffer(), "<core>");
        copy.gen.restore(gr);
        copy.bp.restore(br);
        copy.mem.restore(mr);
        copy.core.restore(cr);
        EXPECT_EQ(copy.core.writebackOverflow(),
                  clean.core.writebackOverflow())
            << "lead " << lead;

        CycleLog want, got;
        clean.core.attachTraceSink(&want);
        copy.core.attachTraceSink(&got);
        // One micro-op per step first, so the early states are compared
        // before a reservation saved 1024+ cycles ahead has passed.
        for (int step = 0; step < 40; ++step) {
            clean.core.run(step < 20 ? 1 : 150);
            copy.core.run(step < 20 ? 1 : 150);
            ckpt::Writer a, b;
            clean.core.snapshot(a);
            copy.core.snapshot(b);
            ASSERT_EQ(b.buffer(), a.buffer())
                << "lead " << lead << ", step " << step;
        }
        EXPECT_EQ(got.rows, want.rows) << "lead " << lead;
        EXPECT_EQ(copy.core.stats().cycles, clean.core.stats().cycles)
            << "lead " << lead;
    }
    EXPECT_GT(checked, 0) << "no save point held an overflow reservation";
}

TEST(Core, ResetStatsKeepsMachineState)
{
    Rig rig(verified(sim::presetConventional(256)));
    rig.core.run(10000);
    rig.core.resetStats();
    EXPECT_EQ(rig.core.stats().committed, 0u);
    EXPECT_EQ(rig.core.stats().cycles, 0u);
    rig.core.run(10000);
    EXPECT_GE(rig.core.stats().committed, 10000u);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, UnbalancingMetricBounds)
{
    Rig rig(sim::presetWsrsRm(512), "facerec");
    rig.core.run(50000);
    const CoreStats &s = rig.core.stats();
    EXPECT_GT(s.totalGroups, 300u);
    EXPECT_GE(s.unbalancingDegree(), 0.0);
    EXPECT_LE(s.unbalancingDegree(), 100.0);
}

TEST(Core, RoundRobinIsPerfectlyBalanced)
{
    Rig rig(sim::presetConventional(256));
    rig.core.run(50000);
    EXPECT_EQ(rig.core.stats().unbalancedGroups, 0u);
}

TEST(Core, BranchStatsAreConsistent)
{
    Rig rig(sim::presetConventional(256), "vpr");
    rig.core.run(40000);
    const CoreStats &s = rig.core.stats();
    EXPECT_GT(s.branches, 2000u);
    EXPECT_GT(s.mispredicts, 0u);
    EXPECT_LT(s.mispredictRate(), 0.5);
}

TEST(Core, MispredictPenaltyMattersForBranchyCode)
{
    double fast, slow;
    {
        CoreParams p = sim::presetConventional(256);
        Rig rig(p, "gcc");
        rig.core.run(40000);
        fast = rig.core.stats().ipc();
    }
    {
        CoreParams p = sim::presetConventional(256);
        p.frontEndDepth = 25;  // much deeper front end
        Rig rig(p, "gcc");
        rig.core.run(40000);
        slow = rig.core.stats().ipc();
    }
    EXPECT_LT(slow, fast);
}

TEST(Core, PerClusterInflightNeverExceedsWindow)
{
    // Indirectly validated by construction; run a stressy config and rely
    // on internal assertions (window accounting underflow would panic).
    CoreParams p = verified(sim::presetWsrsRc(384));
    p.clusterWindow = 8;
    Rig rig(p, "swim");
    rig.core.run(20000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}


TEST(Core, PoolWriteSpecializationVerifies)
{
    // Figure 2b: destinations land in the executing FU pool's subset.
    Rig rig(verified(sim::presetWriteSpecPools(512)), "applu");
    rig.core.run(30000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
}

TEST(Core, PoolWriteSpecializationNeedsMoreRegisters)
{
    // The instruction mix skews destinations toward a few pools, so at
    // equal register count pool-level WS stalls on free registers more
    // than cluster-level WS with round-robin.
    std::uint64_t pool_stalls, cluster_stalls;
    {
        Rig rig(sim::presetWriteSpecPools(384), "swim");
        rig.core.run(40000);
        pool_stalls = freeRegStalls(rig.core);
    }
    {
        Rig rig(sim::presetWriteSpec(384), "swim");
        rig.core.run(40000);
        cluster_stalls = freeRegStalls(rig.core);
    }
    EXPECT_GT(pool_stalls, cluster_stalls);
}


TEST(Core, TimelineRecordsOrderedPipelineEvents)
{
    Rig rig(sim::presetConventional(256));
    obs::TimelineSink sink(256);
    rig.core.attachTraceSink(&sink);
    rig.core.run(20000);
    const auto &tl = sink.records();
    ASSERT_EQ(tl.size(), 256u);
    SeqNum prev_seq = 0;
    Cycle prev_commit = 0;
    bool first = true;
    for (const obs::UopTrace &e : tl) {
        // Per-op event ordering.
        EXPECT_LT(e.renameCycle, e.issueCycle);
        EXPECT_LT(e.issueCycle, e.completeCycle);
        EXPECT_LE(e.completeCycle, e.commitCycle);
        // Commit order is program order and cycle-monotonic.
        if (!first) {
            EXPECT_GT(e.seq, prev_seq);
            EXPECT_GE(e.commitCycle, prev_commit);
        }
        prev_seq = e.seq;
        prev_commit = e.commitCycle;
        first = false;
    }
}

TEST(Core, TimelineDumpRendersRows)
{
    Rig rig(sim::presetWsrsRc(512));
    obs::TimelineSink sink(16);
    rig.core.attachTraceSink(&sink);
    rig.core.run(5000);
    std::ostringstream os;
    sink.render(os);
    const std::string text = os.str();
    EXPECT_NE(text.find('R'), std::string::npos);
    EXPECT_NE(text.find('X'), std::string::npos);
    EXPECT_NE(text.find("C0"), std::string::npos);
}

TEST(Core, IssueWidthHistogramAccountsEveryCycle)
{
    Rig rig(sim::presetConventional(256), "mgrid");
    rig.core.run(30000);
    const CoreStats &s = rig.core.stats();
    std::uint64_t cycles = 0;
    for (const std::uint64_t c : s.issueWidthHist)
        cycles += c;
    EXPECT_EQ(cycles, s.cycles);
    EXPECT_GT(s.meanIssueWidth(), 0.5);
    EXPECT_LE(s.meanIssueWidth(), 8.0);
    const double occupancy =
        double(rig.core.pipeStats().windowOccupancySum()) / s.cycles;
    EXPECT_GT(occupancy, 1.0);
    EXPECT_LE(occupancy, 224.0);
}


TEST(Core, AvoidancePolicyPreventsDeadlockWithoutMoves)
{
    // Workaround (a) of section 2.3: with full allocation freedom (WS +
    // round-robin has any-cluster freedom), steering away from exhausted
    // subsets keeps the machine live with zero injected moves even when
    // subsets are smaller than the logical register count.
    CoreParams p = verified(sim::presetWriteSpec(256));  // 64/subset < 80
    p.deadlockPolicy = DeadlockPolicy::Avoidance;
    Rig rig(p, "gcc");
    rig.core.run(60000);
    EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
    EXPECT_EQ(rig.core.stats().injectedMoves, 0u);
}

TEST(Core, AvoidanceReducesFreeRegStallsOnWsrs)
{
    // On WSRS the freedom is partial (monadic/commutative ops), but
    // steering still avoids many stalls at tight register counts.
    std::uint64_t stalls_avoid, stalls_inject;
    {
        CoreParams p = verified(sim::presetWsrsRc(320));
        p.deadlockPolicy = DeadlockPolicy::Avoidance;
        Rig rig(p, "swim");
        rig.core.run(40000);
        stalls_avoid = freeRegStalls(rig.core);
        EXPECT_EQ(rig.core.stats().valueMismatches, 0u);
    }
    {
        CoreParams p = verified(sim::presetWsrsRc(320));
        Rig rig(p, "swim");
        rig.core.run(40000);
        stalls_inject = freeRegStalls(rig.core);
    }
    EXPECT_LE(stalls_avoid, stalls_inject + 1000);
}

TEST(Core, FetchBreakOnTakenCostsThroughput)
{
    double ideal, realistic;
    {
        CoreParams p = sim::presetConventional(256);
        Rig rig(p, "gcc");  // branchy, ~60% taken
        rig.core.run(40000);
        ideal = rig.core.stats().ipc();
    }
    {
        CoreParams p = sim::presetConventional(256);
        p.fetchBreakOnTaken = true;
        Rig rig(p, "gcc");
        rig.core.run(40000);
        realistic = rig.core.stats().ipc();
    }
    EXPECT_LT(realistic, ideal);
}


TEST(Core, PhysicalRegisterConservation)
{
    // free + recycling/staged + architectural + in-flight-oldPdst must
    // equal the register file size at every cycle boundary, for both
    // renaming implementations.
    for (const RenameImpl impl :
         {RenameImpl::OverPickRecycle, RenameImpl::ExactCount}) {
        CoreParams p = sim::presetWsrsRc(384, impl);
        Rig rig(p, "vpr");
        for (int step = 0; step < 40; ++step) {
            rig.core.run(500);
            const Core::RegAccounting acc = rig.core.regAccounting();
            EXPECT_EQ(acc.free + acc.recycling + acc.architectural +
                          acc.inFlight,
                      acc.total)
                << "impl=" << int(impl) << " step=" << step
                << " free=" << acc.free << " rec=" << acc.recycling
                << " arch=" << acc.architectural
                << " inflight=" << acc.inFlight;
        }
    }
}

TEST(Core, MinimumMispredictPenaltyIsRealized)
{
    // Via the timeline: after a mispredicted branch issued at cycle t,
    // the first correct-path micro-op renames no earlier than
    // t + regReadStages + 1 (resolve) + frontEndDepth, and some branch
    // should achieve exactly that minimum.
    CoreParams p = sim::presetConventional(256);
    Rig rig(p, "gcc");
    obs::TimelineSink sink(20000);
    rig.core.attachTraceSink(&sink);
    rig.core.run(20000);

    const Cycle floor_gap = p.regReadStages + 1 + p.frontEndDepth;
    const auto &tl = sink.records();
    Cycle min_gap = kNeverCycle;
    for (std::size_t i = 0; i + 1 < tl.size(); ++i) {
        if (!(tl[i].flags & obs::kUopMispredicted))
            continue;
        const Cycle gap = tl[i + 1].renameCycle - tl[i].issueCycle;
        EXPECT_GE(gap, floor_gap);
        min_gap = std::min(min_gap, gap);
    }
    ASSERT_NE(min_gap, kNeverCycle) << "no mispredicted branch observed";
    EXPECT_EQ(min_gap, floor_gap);
}

TEST(Core, RejectsInvalidParams)
{
    workload::TraceGenerator gen(workload::findProfile("gzip"));
    bpred::TwoBcGskew bp;
    StatGroup stats("t");
    memory::MemoryHierarchy mem(memory::HierarchyParams{}, stats);

    CoreParams p = sim::presetWsrsRc(512);
    p.numClusters = 3;
    EXPECT_THROW(Core c(p, gen, bp, mem), FatalError);

    CoreParams q = sim::presetConventional(256);
    q.fetchWidth = 0;
    EXPECT_THROW(Core c(q, gen, bp, mem), FatalError);
}


TEST(Core, WatchdogFiresAtTheSameCycleOnAnUnresolvableDeadlock)
{
    // Pool-level write specialization fixes every destination subset by
    // op class, so avoidance has no freedom: 40 registers per pool against
    // 80 logical registers lets a pool's subset fill with architectural
    // state after some progress, and rename then stalls for good. The
    // no-commit watchdog must fire at the exact cycle it always did,
    // 500001 cycles after the last commit.
    CoreParams p = sim::presetWriteSpecPools(160);
    p.deadlockPolicy = DeadlockPolicy::Avoidance;
    Rig rig(p, "mcf");
    try {
        rig.core.run(60000);
        FAIL() << "WSP-160 under avoidance ran without deadlocking";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "core 'WSP-160': no commit in 500000 cycles "
                               "at cycle 513832 (unresolvable deadlock?)");
    }
    EXPECT_GT(rig.core.stats().committed, 0u);
    EXPECT_EQ(rig.core.now(), 513832u);
    EXPECT_EQ(rig.core.stats().cycles, 513832u);
    // Every one of those cycles is still attributed.
    const auto sum = [](const auto &counts) {
        return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    };
    EXPECT_EQ(sum(rig.core.stats().issueWidthHist), 513832u);
    EXPECT_EQ(sum(rig.core.pipeStats().renameStall()), 513832u);
    EXPECT_EQ(sum(rig.core.pipeStats().commitStall()), 513832u);
}

TEST(Core, WatchdogFiresAtTheSameCycleWhileMoveInjectionRetries)
{
    // The same pool-level deadlock under the default move injection:
    // rename retries a move every cycle and never gets one, so no cycle
    // is skipped. Message captured from `wsrs-sim --bench=crafty
    // --machine=WSP-512 --set-regs=256 --warmup=5000 --uops=20000`.
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("WSP-512");
    cfg.core.numPhysRegs = 256;
    cfg.warmupUops = 5000;
    cfg.measureUops = 20000;
    try {
        sim::runSimulation(workload::findProfile("crafty"), cfg);
        FAIL() << "WSP-512 with 256 registers ran without deadlocking";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "core 'WSP-512': no commit in 500000 cycles "
                               "at cycle 542822 (unresolvable deadlock?)");
    }
}

} // namespace
} // namespace wsrs::core
