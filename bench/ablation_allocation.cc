/**
 * @file
 * Ablation A4 — allocation-policy study, including the paper's announced
 * future work (section 5.4.2): a dynamic policy trading off allocation of
 * dependent instructions within a cluster against local workload
 * balancing (our DependenceAware policy).
 */
#include <cstdio>

#include "bench_util.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

using namespace wsrs;

namespace {

sim::SimResults
run(const char *bench, const char *machine)
{
    sim::SimConfig cfg = sim::applyEnvOverrides(sim::SimConfig{});
    cfg.core = sim::findPreset(machine);
    cfg.warmupUops = std::min<std::uint64_t>(cfg.warmupUops, 150000);
    cfg.measureUops = std::min<std::uint64_t>(cfg.measureUops, 250000);
    return sim::runSimulation(workload::findProfile(bench), cfg);
}

} // namespace

int
main()
{
    benchutil::banner("Ablation A4",
                      "WSRS allocation policies: RM / RC / "
                      "dependence-aware (paper future work)");

    std::printf("%-10s %22s %22s %22s\n", "", "WSRS-RM-512",
                "WSRS-RC-512", "WSRS-DEP-512");
    std::printf("%-10s %10s %11s %10s %11s %10s %11s\n", "bench", "IPC",
                "unbal%", "IPC", "unbal%", "IPC", "unbal%");
    for (const auto &p : workload::allProfiles()) {
        std::printf("%-10s", p.name.c_str());
        for (const char *m :
             {"WSRS-RM-512", "WSRS-RC-512", "WSRS-DEP-512"}) {
            const sim::SimResults r = run(p.name.c_str(), m);
            std::printf(" %10.3f %11.1f", r.ipc, r.stats.unbalancingDegree());
        }
        std::printf("\n");
    }
    std::printf(
        "\nShape: RC >= RM (more freedom); the dependence-aware policy\n"
        "trades balance for producer locality — the paper predicted such\n"
        "policies as the next step beyond RM/RC.\n");
    return 0;
}
