/**
 * @file
 * Ablation A7 — pool-level write specialization (paper Figure 2b).
 *
 * Section 2.1 offers two groupings for write specialization: by cluster
 * (Figure 2a, the WSRR machine) or by pool of identical functional units
 * (Figure 2b: load/store units, simple ALUs, complex units, FP units).
 * Cluster-level grouping with round-robin allocation balances subset
 * demand by construction; pool-level grouping inherits the instruction
 * mix's type skew, so it needs more registers for the same performance —
 * this harness quantifies that trade.
 */
#include <cstdio>

#include "bench_util.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

using namespace wsrs;

namespace {

sim::SimResults
run(const char *bench, core::CoreParams params)
{
    sim::SimConfig cfg = sim::applyEnvOverrides(sim::SimConfig{});
    cfg.core = params;
    cfg.warmupUops = std::min<std::uint64_t>(cfg.warmupUops, 150000);
    cfg.measureUops = std::min<std::uint64_t>(cfg.measureUops, 250000);
    return sim::runSimulation(workload::findProfile(bench), cfg);
}

} // namespace

int
main()
{
    benchutil::banner("Ablation A7",
                      "write specialization by cluster (Fig. 2a) vs by "
                      "FU pool (Fig. 2b)");

    const unsigned counts[] = {384, 512, 640, 768};
    for (const char *bench : {"gzip", "gcc", "swim", "facerec"}) {
        std::printf("\n%s (IPC / free-register stall cycles)\n%-16s",
                    bench, "regs");
        for (unsigned c : counts)
            std::printf("%18u", c);
        std::printf("\n%-16s", "WS by cluster");
        for (unsigned c : counts) {
            const auto r = run(bench, sim::presetWriteSpec(c));
            std::printf("%9.3f/%8llu", r.ipc,
                        (unsigned long long)r.renameStalls.freeReg);
        }
        std::printf("\n%-16s", "WS by pool");
        for (unsigned c : counts) {
            const auto r = run(bench, sim::presetWriteSpecPools(c));
            std::printf("%9.3f/%8llu", r.ipc,
                        (unsigned long long)r.renameStalls.freeReg);
        }
        std::printf("\n");
    }
    std::printf(
        "\nShape: both groupings converge to the same IPC once subsets\n"
        "are large enough; pool-level grouping saturates later because\n"
        "the instruction mix concentrates destinations on the simple-ALU\n"
        "and FP pools while the complex-unit pool idles (paper 2.4:\n"
        "'provided that the total number of physical registers is\n"
        "sufficiently increased').\n");
    return 0;
}
