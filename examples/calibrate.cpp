/**
 * @file
 * Calibration probe: prints per-benchmark microarchitectural behaviour on
 * the baseline machine (IPC, mispredict rate, cache miss rates, stall
 * breakdown) so profile knobs can be tuned against the paper's Figure 4.
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
    const std::uint64_t uops =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
    const char *only = (argc > 2 && argv[2][0] != '-') ? argv[2] : nullptr;
    bool ideal_bp = false, ideal_mem = false, big = false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "-bp")
            ideal_bp = true;
        else if (a == "-mem")
            ideal_mem = true;
        else if (a == "-big")
            big = true;
    }

    std::printf("%-9s %6s %7s %7s %7s %9s %9s %9s %9s %7s\n", "bench",
                "IPC", "mispr%", "L1m%", "L2m%", "stFree", "stWin",
                "stRob", "stLsq", "fwd%");
    for (const auto &p : workload::allProfiles()) {
        if (only && p.name != only)
            continue;
        sim::SimConfig cfg;
        const char *machine = std::getenv("WSRS_CAL_MACHINE");
        cfg.core = sim::findPreset(machine ? machine : "RR-256");
        if (std::getenv("WSRS_CAL_FF_COMPLETE"))
            cfg.core.ffScope = core::FastForwardScope::Complete;
        if (const char *s = std::getenv("WSRS_CAL_ISSUE"))
            cfg.core.issuePerCluster = std::strtoul(s, nullptr, 10);
        if (const char *s = std::getenv("WSRS_CAL_WINDOW"))
            cfg.core.clusterWindow = std::strtoul(s, nullptr, 10);
        if (std::getenv("WSRS_CAL_RANDOM"))
            cfg.core.policy = core::AllocPolicy::RandomCommutative;
        if (const char *s = std::getenv("WSRS_CAL_FEDEPTH"))
            cfg.core.frontEndDepth = std::strtoul(s, nullptr, 10);
        if (const char *s = std::getenv("WSRS_CAL_REGREAD"))
            cfg.core.regReadStages = std::strtoul(s, nullptr, 10);
        cfg.measureUops = uops;
        cfg.warmupUops = uops;
        cfg.core.verifyDataflow = true;
        if (ideal_bp)
            cfg.predictor = sim::PredictorKind::Perfect;
        if (ideal_mem) {
            cfg.mem.l1.sizeBytes = 64u << 20;
            cfg.mem.l2.sizeBytes = 256u << 20;
        }
        if (big) {
            cfg.core.clusterWindow = 512;
            cfg.core.numPhysRegs = 4096;
            cfg.core.issuePerCluster = 8;
            cfg.core.fetchWidth = 16;
            cfg.core.commitWidth = 16;
            cfg.core.lsqSize = 1024;
            cfg.core.fetchQueue = 256;
            cfg.core.writebackPerCluster = 16;
        }
        const sim::SimResults r = sim::runSimulation(p, cfg);
        const auto &s = r.stats;
        std::printf("%-9s %6.3f %7.2f %7.2f %7.2f %9llu %9llu %9llu %9llu "
                    "%7.2f\n",
                    p.name.c_str(), r.ipc, 100 * r.branchMispredictRate,
                    100 * r.l1MissRate, 100 * r.l2MissRate,
                    (unsigned long long)s.renameStallFreeReg,
                    (unsigned long long)s.renameStallWindow,
                    (unsigned long long)s.renameStallRob,
                    (unsigned long long)s.renameStallLsq,
                    100.0 * s.loadForwards / std::max<std::uint64_t>(1,
                        s.committed));
        const std::uint64_t tot = s.perCluster[0] + s.perCluster[1] +
                                  s.perCluster[2] + s.perCluster[3];
        if (std::getenv("WSRS_CAL_CLUSTERS") && tot) {
            std::printf("  cluster shares: %.1f%% %.1f%% %.1f%% %.1f%%  "
                        "unbal %.1f%%\n",
                        100.0 * s.perCluster[0] / tot,
                        100.0 * s.perCluster[1] / tot,
                        100.0 * s.perCluster[2] / tot,
                        100.0 * s.perCluster[3] / tot,
                        r.unbalancingDegree);
        }
    }
    return 0;
}
