/**
 * @file
 * Quickstart: simulate one benchmark on the conventional machine and on the
 * 4-cluster WSRS machine, and print the headline comparison.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [benchmark] [uops]
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

using namespace wsrs;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "gzip";
    const std::uint64_t uops =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200000;

    const workload::BenchmarkProfile &profile =
        workload::findProfile(bench);

    std::printf("benchmark: %s (%s)\n", profile.name.c_str(),
                profile.floatingPoint ? "SPECfp2000 stand-in"
                                      : "SPECint2000 stand-in");
    std::printf("measured slice: %llu micro-ops\n\n",
                static_cast<unsigned long long>(uops));

    for (const char *label : {"RR-256", "WSRS-RC-512"}) {
        sim::SimConfig cfg;
        cfg.core = sim::findPreset(label);
        cfg.measureUops = uops;
        cfg.warmupUops = uops / 4;
        cfg.core.verifyDataflow = true;  // every committed value oracle-checked

        const sim::SimResults r = sim::runSimulation(profile, cfg);
        std::printf("%-12s IPC %.3f | mispredict %.2f%% | L1 miss %.2f%% | "
                    "unbalancing %.1f%%\n",
                    label, r.ipc, 100.0 * r.branchMispredictRate,
                    100.0 * r.l1MissRate, r.unbalancingDegree);
    }

    std::printf("\nThe WSRS machine sustains comparable IPC while its\n"
                "register file needs 1/6th of the conventional silicon area\n"
                "(see bench/table1_regfile).\n");
    return 0;
}
