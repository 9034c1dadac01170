/**
 * @file
 * Core-model probe: runs degenerate synthetic profiles (pure independent
 * ALU ops, ALU+loads, FP-heavy, ...) through a big machine with ideal
 * memory/branches to localize pipeline bottlenecks. Development tool.
 */
#include <cstdio>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profile.h"

using namespace wsrs;

namespace {

workload::BenchmarkProfile
base()
{
    workload::BenchmarkProfile p;
    p.name = "probe";
    p.fracLoad = 0;
    p.fracStore = 0;
    p.fracBranch = 0.02;
    p.fracIntMul = 0;
    p.fracIntDiv = 0;
    p.fracNoadic = 1.0;
    p.fracMonadic = 0.0;
    p.branchBiasedFrac = 1.0;
    p.biasedTakenProb = 1.0;
    p.workingSetBytes = 64 << 10;
    p.strideFrac = 1.0;
    p.loadAfterStoreFrac = 0;
    p.storeAliasFrac = 0;
    return p;
}

void
runOne(const char *label, const workload::BenchmarkProfile &p, bool big)
{
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("RR-256");
    if (big) {
        cfg.core.clusterWindow = 512;
        cfg.core.numPhysRegs = 4096;
        cfg.core.lsqSize = 1024;
        cfg.core.fetchQueue = 256;
    }
    cfg.predictor = sim::PredictorKind::Perfect;
    cfg.mem.l1.sizeBytes = 64u << 20;
    cfg.measureUops = 150000;
    cfg.warmupUops = 20000;
    cfg.core.verifyDataflow = true;
    const auto r = sim::runSimulation(p, cfg);
    std::printf("%-28s IPC %6.3f  stFree %8llu stWin %8llu stRob %8llu "
                "stLsq %8llu\n",
                label, r.ipc, (unsigned long long)r.stats.renameStallFreeReg,
                (unsigned long long)r.stats.renameStallWindow,
                (unsigned long long)r.stats.renameStallRob,
                (unsigned long long)r.stats.renameStallLsq);
}

} // namespace

int
main()
{
    { // Pure independent 1-cycle ALU ops: expect IPC ~= 8.
        auto p = base();
        runOne("noadic-alu", p, true);
    }
    { // Independent loads only.
        auto p = base();
        p.fracLoad = 0.98;
        p.fracBranch = 0.02;
        runOne("loads-only", p, true);
    }
    { // Half loads, half ALU.
        auto p = base();
        p.fracLoad = 0.40;
        runOne("40%-loads", p, true);
    }
    { // FP mix without dependencies.
        auto p = base();
        p.fracFpAdd = 0.30;
        p.fracFpMul = 0.18;
        p.fracLoad = 0.30;
        p.fracStore = 0.10;
        runOne("fp-mix-independent", p, true);
    }
    { // Same on the paper-sized machine.
        auto p = base();
        p.fracFpAdd = 0.30;
        p.fracFpMul = 0.18;
        p.fracLoad = 0.30;
        p.fracStore = 0.10;
        runOne("fp-mix-independent-paper", p, false);
    }
    return 0;
}
