/**
 * @file
 * Using the public workload API: define a custom benchmark profile (a
 * synthetic "hash-join" kernel), inspect the generated program, validate
 * it against the in-order oracle, and measure it on two machines.
 *
 *   ./build/examples/custom_workload
 */
#include <cstdio>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/oracle.h"
#include "src/workload/trace_generator.h"

using namespace wsrs;

int
main()
{
    // A pointer-heavy kernel: probe a hash table (random, poorly cached
    // loads), walk collision chains (pointer chasing), little FP.
    workload::BenchmarkProfile p;
    p.name = "hashjoin";
    p.fracLoad = 0.34;
    p.fracStore = 0.10;
    p.fracBranch = 0.14;
    p.fracMonadic = 0.45;
    p.fracCommutative = 0.45;
    p.depGeomP = 0.35;
    p.depCrossBlockFrac = 0.5;
    p.maxChainDepth = 40;
    p.invariantFrac = 0.10;
    p.loadValueFrac = 0.25;
    p.numInvariantRegs = 6;
    p.pointerChaseFrac = 0.25;
    p.addrInvariantFrac = 0.6;
    p.branchBiasedFrac = 0.55;
    p.biasedTakenProb = 0.93;
    p.patternNoise = 0.03;
    p.numStreams = 2;
    p.strideFrac = 0.25;
    p.workingSetBytes = 8u << 20;
    p.randomHotFrac = 0.35;
    p.seed = 0x9a5471;

    // Inspect the generated static program.
    workload::TraceGenerator gen(p);
    std::printf("generated static program: %zu micro-op sites\n",
                gen.program().size());

    // Sanity: the stream is architecturally well-defined (oracle runs).
    workload::OracleExecutor oracle;
    workload::TraceGenerator oracle_gen(p);
    for (int i = 0; i < 10000; ++i)
        oracle.execute(oracle_gen.next());
    std::printf("oracle executed 10000 micro-ops of the custom trace\n\n");

    // Measure on the conventional and WSRS machines, with commit-time
    // oracle verification enabled.
    for (const char *machine : {"RR-256", "WSRS-RC-512", "WSRS-RM-512"}) {
        sim::SimConfig cfg;
        cfg.core = sim::findPreset(machine);
        cfg.warmupUops = 60000;
        cfg.measureUops = 120000;
        cfg.core.verifyDataflow = true;
        const sim::SimResults r = sim::runSimulation(p, cfg);
        std::printf("%-12s IPC %.3f | mispredict %.1f%% | L1 miss %.1f%% "
                    "| L2 miss %.1f%% | unbal %.1f%%\n",
                    machine, r.ipc, 100 * r.branchMispredictRate,
                    100 * r.l1MissRate, 100 * r.l2MissRate,
                    r.unbalancingDegree);
    }

    std::printf("\nLike mcf, a memory-bound kernel is insensitive to the "
                "cluster\norganization: WSRS costs nothing here while its "
                "register file is 6x smaller.\n");
    return 0;
}
