/**
 * @file
 * Reproduces Figure 5: workload unbalancing degrees of the WSRS
 * allocation policies.
 *
 * Metric (paper section 5.4.2): instructions are split into groups of 128;
 * a group is unbalanced when any cluster receives fewer than 24 or more
 * than 40 of them; the unbalancing degree is the percentage of unbalanced
 * groups. Round-robin is perfectly balanced by construction; RM exhibits
 * higher unbalancing than RC (fewer degrees of freedom); FP codes are more
 * unbalanced than integer codes (invariant operands pin work to cluster
 * pairs), approaching 100% on wupwise/facerec.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "src/common/log.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"

using namespace wsrs;

namespace {

void
runGroup(const std::vector<workload::BenchmarkProfile> &profiles,
         const char *title)
{
    const std::vector<std::string> machines = {"WSRS-RC-512", "WSRS-RM-512",
                                               "RR-256"};
    std::printf("\n%s (unbalancing degree, %%)\n%-12s", title, "bench");
    for (const auto &m : machines)
        std::printf("%14s", m.c_str());
    std::printf("\n");

    const auto jobs = runner::SweepRunner::crossProduct(
        profiles, machines, sim::applyEnvOverrides(sim::SimConfig{}));
    const auto outcomes = runner::SweepRunner().run(jobs);

    std::size_t i = 0;
    for (const auto &p : profiles) {
        std::printf("%-12s", p.name.c_str());
        for (std::size_t m = 0; m < machines.size(); ++m, ++i) {
            if (!outcomes[i].ok)
                fatal("%s on %s: %s", p.name.c_str(),
                      machines[m].c_str(), outcomes[i].error.c_str());
            std::printf("%14.1f",
                        outcomes[i].results.stats.unbalancingDegree());
        }
        std::printf("\n");
        std::fflush(stdout);
    }
}

} // namespace

int
main()
{
    benchutil::banner("Figure 5",
                      "unbalancing degrees of WSRS allocation policies");
    runGroup(workload::integerProfiles(), "Integer benchmarks");
    runGroup(workload::floatProfiles(), "Floating point benchmarks");
    std::printf("\nPaper shape to check: RR is perfectly balanced (0); RM\n"
                ">= RC on most codes; FP benchmarks show higher unbalancing\n"
                "than integer ones, near 100%% on wupwise and facerec.\n");
    return 0;
}
